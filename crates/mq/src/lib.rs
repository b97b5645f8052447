//! # entk-mq — in-process durable message broker
//!
//! EnTK (the paper, §II-C) relies on RabbitMQ to create the communication
//! infrastructure that transports task objects and control messages among its
//! components. This crate is the Rust substitute: a thread-safe, in-process
//! broker exposing exactly the subset of AMQP-style semantics EnTK consumes:
//!
//! * named queues, declared/deleted/purged at runtime;
//! * `publish` / `get` / blocking consume with delivery tags;
//! * explicit `ack` and `nack` (with re-queueing) so unacknowledged messages
//!   are redelivered — the basis of EnTK's transactional state updates;
//! * optional durability: an append-only journal that can be replayed after a
//!   crash, mirroring RabbitMQ's durable queues ("messages are stored in the
//!   server and can be recovered upon failure of EnTK components");
//! * per-queue and broker-wide statistics (depth, rates, resident bytes) used
//!   by the Fig. 6 prototype benchmark.
//!
//! The broker is deliberately server-like: producers and consumers only hold
//! a [`Broker`] handle (they "do not need to be topology aware"), messages are
//! buffered by the broker so publishing and consuming are fully asynchronous
//! with respect to each other.

#![warn(missing_docs)]

pub mod broker;
pub mod error;
pub mod journal;
pub mod message;
pub mod proto;
pub mod queue;
pub mod stats;

pub use broker::{Broker, BrokerConfig};
pub use error::{MqError, MqResult};
pub use journal::{Journal, JournalRecord};
pub use message::{Attachment, Delivery, Message};
pub use queue::QueueConfig;
pub use stats::{BrokerStats, QueueStats};
