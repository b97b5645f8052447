//! # entk-gateway — the wire-facing durable gateway
//!
//! The service crate's client boundary is an RPC boundary in disguise:
//! everything crossing it is owned data. This crate makes the disguise
//! real — a [`Gateway`] binds a TCP listener
//! (reusing `entk-observe`'s HTTP stack) and maps a small JSON protocol
//! onto a [`ServiceClient`](entk_service::ServiceClient):
//!
//! | Route                      | Maps to                                  |
//! |----------------------------|------------------------------------------|
//! | `POST /v1/workflows`       | `submit_spec` → `202` + submission id    |
//! | `GET /v1/workflows/{id}`   | `status` / terminal result summary       |
//! | `DELETE /v1/workflows/{id}`| `cancel`                                 |
//! | `GET /v1/sessions`         | `list` — every known submission          |
//!
//! Admission verdicts surface with their native HTTP shapes: a saturated
//! service answers `429` with a `Retry-After` header derived from the
//! EWMA turnaround estimate, a draining (or stopped) service answers `503`, a
//! structurally invalid spec answers `400`, and a refused journal append
//! answers `500` (the submission was NOT accepted — retry is safe).
//!
//! Submissions through the gateway are **durable**: the wire spec is
//! journaled before admission succeeds, so a crashed service re-drives
//! every in-flight workflow exactly-once on
//! [`EnsembleService::recover`](entk_service::EnsembleService::recover).
//! The fair-share `weight` field in the submit body carries a per-tenant
//! scheduling weight onto the service's stride scheduler.

#![warn(missing_docs)]

pub mod server;
pub mod wire;

pub use server::Gateway;
pub use wire::SubmitBody;
