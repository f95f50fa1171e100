//! The production front door: a framed-TCP serving layer over
//! [`hybrid_service::QueryService`].
//!
//! Four layers, each pinned by its own tests:
//!
//! * [`wire`] — length-prefixed, versioned frames over any byte stream;
//!   hostile lengths rejected before allocation.
//! * [`codec`] — bounds-checked byte encodings for queries, schemas, and
//!   results; corrupt payloads produce typed errors, never panics.
//! * [`protocol`] — the typed message set: hello/ack authentication,
//!   query submission with a deadline (the body is the service's
//!   [`QueryBody`], re-exported here), streaming results
//!   (`ResultHeader · ResultChunk* · ResultDone` with the per-query stats
//!   snapshot in the trailer), and typed errors carrying the retryable
//!   bit.
//! * [`server`] / [`client`] — the accept-loop listener with per-tenant
//!   authentication and watchdog-bounded reads, and the blocking client
//!   used by `hwjoin --connect` and the `svc_soak` driver. The handler
//!   makes one [`hybrid_service::QueryService::submit_as`] call per query
//!   frame, whatever its shape.

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{ClientError, ClientReply, JoinClient};
pub use protocol::{ErrorCode, QueryBody, QueryFrame, Request, Response, CONNECTION_ID};
pub use server::{JoinServer, ServerConfig, TenantCred};
pub use wire::{FrameType, WireError, MAGIC, MAX_FRAME, VERSION};
