//! Typed protocol messages and their frame encodings.
//!
//! A connection's lifecycle:
//!
//! 1. Client sends [`Request::Hello`] (tenant name + token); server
//!    answers [`Response::HelloAck`] or a connection-level
//!    [`Response::Error`] (`id == CONNECTION_ID`) and drops.
//! 2. Client sends [`Request::Query`] frames, one at a time per
//!    connection (pipelining is a protocol-version bump; concurrency
//!    today means more connections). A frame's body is the service's own
//!    [`QueryBody`] — a binary or a star query — which the server hands to
//!    `QueryService::submit_as` as is. For each query the server answers
//!    either the stream `ResultHeader · ResultChunk* · ResultDone` — rows
//!    arrive in `batch_rows`-sized columnar chunks, the trailer carries
//!    the latency breakdown plus the full per-query stats snapshot — or a
//!    single typed [`Response::Error`] carrying the retryable bit. The
//!    header's `algorithm` names the plan that ran: an algorithm name for
//!    a binary query, `cascade` or `hypercube` for a star.
//!
//! Every message round-trips through the byte codec in [`crate::codec`];
//! the tests below pin that for each variant.

use crate::codec::{self, CodecError, Decoder};
use crate::wire::FrameType;
use hybrid_common::schema::Schema;
pub use hybrid_service::QueryBody;

/// The `id` used by errors that concern the connection itself (failed
/// hello, undecodable frame) rather than any particular query.
pub const CONNECTION_ID: u64 = u64::MAX;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // one Request per frame, never stored in bulk
pub enum Request {
    /// First frame on every connection: authenticate as `tenant`.
    Hello {
        tenant: String,
        token: String,
    },
    Query(QueryFrame),
}

/// One query submission.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrame {
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: u64,
    /// Queue-wait deadline in milliseconds; 0 means none. Threaded
    /// through to the scheduler (and, later, to early-approximate
    /// answers).
    pub deadline_ms: u64,
    pub body: QueryBody,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Authentication accepted; `tenant_index` is the server-side dense
    /// tenant id (diagnostic only — the client never sends it back).
    HelloAck { tenant_index: u64 },
    /// Result stream opening: the result schema and the algorithm that
    /// produced (or will produce) the rows.
    ResultHeader {
        id: u64,
        schema: Schema,
        algorithm: String,
        from_cache: bool,
    },
    /// One columnar-encoded slice of result rows (decode with the result
    /// schema from the header).
    ResultChunk { id: u64, payload: Vec<u8> },
    /// End of stream: totals and the per-query stats snapshot.
    ResultDone {
        id: u64,
        rows: u64,
        queue_us: u64,
        exec_us: u64,
        latency_us: u64,
        stats: Vec<(String, u64)>,
    },
    /// Typed failure for query `id` (or the connection when
    /// `id == CONNECTION_ID`). `retryable` is the service's own judgment
    /// carried to the client.
    Error {
        id: u64,
        code: ErrorCode,
        retryable: bool,
        message: String,
    },
}

/// Failure taxonomy carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Global admission queue full.
    Rejected = 1,
    /// The tenant's own queue quota is full (always retryable).
    QuotaExceeded = 2,
    /// Queue-wait timeout or deadline expiry.
    TimedOut = 3,
    /// Admitted but execution failed.
    Exec = 4,
    /// The frame decoded but the payload was malformed or invalid.
    BadRequest = 5,
    /// Unknown tenant or wrong token.
    Unauthorized = 6,
}

impl ErrorCode {
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Rejected,
            2 => ErrorCode::QuotaExceeded,
            3 => ErrorCode::TimedOut,
            4 => ErrorCode::Exec,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Unauthorized,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Rejected => "rejected",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::TimedOut => "timed_out",
            ErrorCode::Exec => "exec",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Unauthorized => "unauthorized",
        }
    }
}

impl Request {
    /// Frame type + payload bytes for this message.
    pub fn encode(&self) -> (FrameType, Vec<u8>) {
        let mut out = Vec::new();
        match self {
            Request::Hello { tenant, token } => {
                codec::put_str(&mut out, tenant);
                codec::put_str(&mut out, token);
                (FrameType::Hello, out)
            }
            Request::Query(q) => {
                codec::put_u64(&mut out, q.id);
                codec::put_u64(&mut out, q.deadline_ms);
                match &q.body {
                    QueryBody::Binary { query, algorithm } => {
                        codec::put_u8(&mut out, 0);
                        codec::put_opt_algorithm(&mut out, *algorithm);
                        codec::put_query(&mut out, query);
                    }
                    QueryBody::Star { star, planner } => {
                        codec::put_u8(&mut out, 1);
                        codec::put_planner(&mut out, *planner);
                        codec::put_star(&mut out, star);
                    }
                }
                (FrameType::Query, out)
            }
        }
    }

    /// Decode a client frame. The payload must parse exactly.
    pub fn decode(ty: FrameType, payload: &[u8]) -> Result<Request, CodecError> {
        let mut d = Decoder::new(payload);
        let req = match ty {
            FrameType::Hello => Request::Hello {
                tenant: d.str()?,
                token: d.str()?,
            },
            FrameType::Query => {
                let id = d.u64()?;
                let deadline_ms = d.u64()?;
                let body = match d.u8()? {
                    0 => {
                        let algorithm = codec::opt_algorithm(&mut d)?;
                        let query = codec::query(&mut d)?;
                        QueryBody::Binary { query, algorithm }
                    }
                    1 => {
                        let planner = codec::planner(&mut d)?;
                        let star = codec::star(&mut d)?;
                        QueryBody::Star { star, planner }
                    }
                    t => return Err(CodecError(format!("query body tag {t}"))),
                };
                Request::Query(QueryFrame {
                    id,
                    deadline_ms,
                    body,
                })
            }
            other => return Err(CodecError(format!("frame type {other:?} is not a request"))),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> (FrameType, Vec<u8>) {
        let mut out = Vec::new();
        match self {
            Response::HelloAck { tenant_index } => {
                codec::put_u64(&mut out, *tenant_index);
                (FrameType::HelloAck, out)
            }
            Response::ResultHeader {
                id,
                schema,
                algorithm,
                from_cache,
            } => {
                codec::put_u64(&mut out, *id);
                codec::put_schema(&mut out, schema);
                codec::put_str(&mut out, algorithm);
                codec::put_bool(&mut out, *from_cache);
                (FrameType::ResultHeader, out)
            }
            Response::ResultChunk { id, payload } => {
                codec::put_u64(&mut out, *id);
                codec::put_bytes(&mut out, payload);
                (FrameType::ResultChunk, out)
            }
            Response::ResultDone {
                id,
                rows,
                queue_us,
                exec_us,
                latency_us,
                stats,
            } => {
                codec::put_u64(&mut out, *id);
                codec::put_u64(&mut out, *rows);
                codec::put_u64(&mut out, *queue_us);
                codec::put_u64(&mut out, *exec_us);
                codec::put_u64(&mut out, *latency_us);
                codec::put_u32(&mut out, stats.len() as u32);
                for (k, v) in stats {
                    codec::put_str(&mut out, k);
                    codec::put_u64(&mut out, *v);
                }
                (FrameType::ResultDone, out)
            }
            Response::Error {
                id,
                code,
                retryable,
                message,
            } => {
                codec::put_u64(&mut out, *id);
                codec::put_u8(&mut out, *code as u8);
                codec::put_bool(&mut out, *retryable);
                codec::put_str(&mut out, message);
                (FrameType::Error, out)
            }
        }
    }

    pub fn decode(ty: FrameType, payload: &[u8]) -> Result<Response, CodecError> {
        let mut d = Decoder::new(payload);
        let resp = match ty {
            FrameType::HelloAck => Response::HelloAck {
                tenant_index: d.u64()?,
            },
            FrameType::ResultHeader => Response::ResultHeader {
                id: d.u64()?,
                schema: codec::schema(&mut d)?,
                algorithm: d.str()?,
                from_cache: d.bool()?,
            },
            FrameType::ResultChunk => Response::ResultChunk {
                id: d.u64()?,
                payload: d.bytes()?,
            },
            FrameType::ResultDone => {
                let id = d.u64()?;
                let rows = d.u64()?;
                let queue_us = d.u64()?;
                let exec_us = d.u64()?;
                let latency_us = d.u64()?;
                let n = d.u32()? as usize;
                let mut stats = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let k = d.str()?;
                    let v = d.u64()?;
                    stats.push((k, v));
                }
                Response::ResultDone {
                    id,
                    rows,
                    queue_us,
                    exec_us,
                    latency_us,
                    stats,
                }
            }
            FrameType::Error => Response::Error {
                id: d.u64()?,
                code: {
                    let raw = d.u8()?;
                    ErrorCode::from_u8(raw)
                        .ok_or_else(|| CodecError(format!("error code {raw}")))?
                },
                retryable: d.bool()?,
                message: d.str()?,
            },
            other => {
                return Err(CodecError(format!(
                    "frame type {other:?} is not a response"
                )))
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::datum::DataType;
    use hybrid_common::expr::Expr;
    use hybrid_common::ops::AggSpec;
    use hybrid_core::{HybridQuery, JoinAlgorithm};

    fn round_trip_request(r: Request) {
        let (ty, payload) = r.encode();
        assert_eq!(Request::decode(ty, &payload).unwrap(), r);
    }

    fn round_trip_response(r: Response) {
        let (ty, payload) = r.encode();
        assert_eq!(Response::decode(ty, &payload).unwrap(), r);
    }

    fn tiny_query() -> HybridQuery {
        HybridQuery {
            db_table: "T".into(),
            hdfs_table: "L".into(),
            db_pred: Expr::col_le(1, 3),
            db_proj: vec![0, 1],
            db_key: 0,
            hdfs_pred: Expr::col_le(1, 4),
            hdfs_proj: vec![0, 1],
            hdfs_key: 0,
            post_predicate: None,
            group_expr: Expr::col(1),
            aggs: vec![AggSpec::Count],
            bloom: hybrid_bloom::BloomParams::new(1024, 2).unwrap(),
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            tenant: "acme".into(),
            token: "s3cret".into(),
        });
        round_trip_request(Request::Query(QueryFrame {
            id: 42,
            deadline_ms: 1500,
            body: QueryBody::Binary {
                query: tiny_query(),
                algorithm: Some(JoinAlgorithm::Zigzag),
            },
        }));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::HelloAck { tenant_index: 3 });
        round_trip_response(Response::ResultHeader {
            id: 7,
            schema: Schema::from_pairs(&[("g", DataType::I32), ("count", DataType::I64)]),
            algorithm: "repartition(BF)".into(),
            from_cache: true,
        });
        round_trip_response(Response::ResultChunk {
            id: 7,
            payload: vec![1, 2, 3, 4, 5],
        });
        round_trip_response(Response::ResultDone {
            id: 7,
            rows: 12345,
            queue_us: 17,
            exec_us: 400,
            latency_us: 417,
            stats: vec![("net.cross.bytes".into(), 99), ("svc.retries".into(), 1)],
        });
        round_trip_response(Response::Error {
            id: CONNECTION_ID,
            code: ErrorCode::QuotaExceeded,
            retryable: true,
            message: "tenant acme over quota: 8 queued (max 8)".into(),
        });
    }

    #[test]
    fn request_response_frame_types_do_not_cross() {
        let (ty, payload) = Response::HelloAck { tenant_index: 0 }.encode();
        assert!(Request::decode(ty, &payload).is_err());
        let (ty, payload) = Request::Hello {
            tenant: "a".into(),
            token: "b".into(),
        }
        .encode();
        assert!(Response::decode(ty, &payload).is_err());
    }

    #[test]
    fn trailing_bytes_rejected_at_the_message_layer() {
        let (ty, mut payload) = Request::Hello {
            tenant: "a".into(),
            token: "b".into(),
        }
        .encode();
        payload.push(0xFF);
        assert!(Request::decode(ty, &payload).is_err());
    }
}
