//! Message and delivery types.
//!
//! EnTK copies task/stage/pipeline objects among processes "via queues and
//! transactions"; here a message is an opaque payload ([`bytes::Bytes`], so
//! cloning a message never copies the body) plus a small set of headers.

use bytes::Bytes;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An in-memory value riding along with a message, opaque to the broker.
/// It is never journaled, so a message recovered from the journal has
/// none, and the broker lets go of it with the message: on ack, purge or
/// queue deletion, and on requeue — a redelivery carries none. Cloning a
/// message shares it.
pub type Attachment = Arc<dyn Any + Send + Sync>;

/// Global monotonically increasing message id, unique within the process.
static NEXT_MESSAGE_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable message as stored by the broker.
#[derive(Debug, Clone)]
pub struct Message {
    /// Process-unique id, assigned at construction.
    pub id: u64,
    /// Opaque payload. `Bytes` makes clones O(1) — the Fig. 6 prototype
    /// pushes 10^6 task descriptions through the broker.
    pub payload: Bytes,
    /// Optional small string headers (routing hints, content type, ...).
    pub headers: BTreeMap<String, String>,
    /// Whether the message should be written to the journal when the target
    /// queue is durable.
    pub persistent: bool,
    /// See [`Attachment`].
    pub attachment: Option<Attachment>,
}

impl Message {
    /// Create a non-persistent message from any payload.
    pub fn new(payload: impl Into<Bytes>) -> Self {
        Message {
            id: NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed),
            payload: payload.into(),
            headers: BTreeMap::new(),
            persistent: false,
            attachment: None,
        }
    }

    /// Create a persistent message (journaled on durable queues).
    pub fn persistent(payload: impl Into<Bytes>) -> Self {
        let mut m = Message::new(payload);
        m.persistent = true;
        m
    }

    /// Attach a header, builder-style.
    pub fn with_header(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(key.into(), value.into());
        self
    }

    /// Ride an [`Attachment`] along, builder-style.
    pub fn with_attachment(mut self, attachment: Attachment) -> Self {
        self.attachment = Some(attachment);
        self
    }

    /// Attach an encoded [`TraceCtx`](entk_observe::TraceCtx) as the
    /// [`entk_observe::TRACE_HEADER`] header, builder-style. Headers are
    /// journaled alongside the payload, so the trace survives broker
    /// crash-recovery redelivery.
    pub fn with_trace(self, trace: &entk_observe::TraceCtx) -> Self {
        self.with_header(entk_observe::TRACE_HEADER, trace.encode())
    }

    /// Decode the carried [`TraceCtx`](entk_observe::TraceCtx), if the
    /// trace header is present and well-formed.
    pub fn trace(&self) -> Option<entk_observe::TraceCtx> {
        self.headers
            .get(entk_observe::TRACE_HEADER)
            .and_then(|v| entk_observe::TraceCtx::decode(v))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Approximate resident size of this message (payload + headers), used
    /// for the broker memory statistics reported in Fig. 6.
    pub fn resident_bytes(&self) -> usize {
        let headers: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 16)
            .sum();
        self.payload.len() + headers + std::mem::size_of::<Self>()
    }

    /// Interpret the payload as UTF-8, lossily.
    pub fn payload_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.payload)
    }
}

/// A message handed to a consumer, carrying the delivery tag needed to
/// acknowledge it.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Queue-unique tag identifying this delivery for `ack`/`nack`.
    pub tag: u64,
    /// True if this message was delivered before and re-queued (nack or
    /// consumer crash), mirroring AMQP's `redelivered` flag.
    pub redelivered: bool,
    /// The message itself.
    pub message: Message,
}

impl Delivery {
    /// Convenience access to the payload.
    pub fn payload(&self) -> &Bytes {
        &self.message.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = Message::new("x");
        let b = Message::new("y");
        assert!(b.id > a.id);
    }

    #[test]
    fn persistent_flag_set() {
        assert!(Message::persistent("p").persistent);
        assert!(!Message::new("p").persistent);
    }

    #[test]
    fn headers_builder() {
        let m = Message::new("x").with_header("kind", "task");
        assert_eq!(m.headers.get("kind").map(String::as_str), Some("task"));
    }

    #[test]
    fn trace_header_roundtrips() {
        let ctx = entk_observe::TraceCtx::new("task.0042").with_hop("enq", "enqueue", 123);
        let m = Message::persistent("x").with_trace(&ctx);
        assert_eq!(m.trace(), Some(ctx));
        assert_eq!(Message::new("y").trace(), None);
    }

    #[test]
    fn resident_bytes_counts_payload_and_headers() {
        let small = Message::new("ab");
        let big = Message::new(vec![0u8; 1024]).with_header("k", "v");
        assert!(big.resident_bytes() > small.resident_bytes() + 1000);
    }

    #[test]
    fn payload_str_lossy() {
        let m = Message::new("hello");
        assert_eq!(m.payload_str(), "hello");
    }

    #[test]
    fn clone_is_cheap_shares_payload() {
        let m = Message::new(vec![1u8; 4096]);
        let c = m.clone();
        // Bytes clones share the same backing storage.
        assert_eq!(m.payload.as_ptr(), c.payload.as_ptr());
    }
}
