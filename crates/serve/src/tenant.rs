//! One tenant's controller, quota accounting, and durable identity.
//!
//! A [`Tenant`] pairs a [`ReactiveController`] with the ingest counters
//! the daemon enforces per stream: how many events it has accepted, how
//! many payload bytes, and how many events it has refused. All
//! admission decisions are made here, as pure single-threaded logic —
//! the server layer only decides *when* to call in (under the tenant's
//! lock) and what to do with the verdict.
//!
//! A tenant converts losslessly to and from a
//! [`TenantRecord`]: the controller goes
//! through the v4 checkpoint format, the counters through the record
//! header. Eviction, graceful drain, and crash restart all ride on that
//! one conversion, which is why restart is bit-identical.

use crate::frame::RejectCode;
use crate::storage::TenantRecord;
use rsc_control::{
    CheckpointError, ControlStats, ControllerParams, InvalidParamsError, ReactiveController,
    TransitionLogPolicy,
};
use rsc_trace::codec::{fnv1a, FNV_OFFSET};
use rsc_trace::io::{read_trace_with_limit, TraceIoError, MAX_TRACE_EVENTS};

/// Per-tenant admission limits. A zero field means "unlimited".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Maximum lifetime events a tenant may feed the controller.
    pub max_events: u64,
    /// Maximum lifetime payload bytes a tenant may send.
    pub max_bytes: u64,
}

impl QuotaConfig {
    /// No limits.
    pub fn unlimited() -> Self {
        QuotaConfig {
            max_events: 0,
            max_bytes: 0,
        }
    }
}

/// Why an `Events` frame was refused. Carries everything the server
/// needs to build a structured `Reject` frame.
#[derive(Debug)]
pub struct IngestReject {
    /// Machine-readable reject class.
    pub code: RejectCode,
    /// Human-readable detail for the client's logs.
    pub detail: String,
}

/// What an accepted `Events` frame did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Events decoded and fed to the controller by this frame.
    pub accepted: u64,
    /// Tenant's lifetime accepted-event total after this frame.
    pub tenant_events: u64,
}

/// A tenant: one controller plus admission state.
#[derive(Debug)]
pub struct Tenant {
    id: u64,
    quota: QuotaConfig,
    ctl: ReactiveController,
    bytes_ingested: u64,
    accepted_events: u64,
    rejected_events: u64,
    stream_digest: u64,
}

impl Tenant {
    /// Creates a fresh tenant.
    ///
    /// The controller keeps exact per-kind transition counts but no
    /// transition events: nothing here reads them, and a long-lived
    /// tenant's full history would grow every record without bound.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from the builder.
    pub fn new(
        id: u64,
        params: ControllerParams,
        quota: QuotaConfig,
    ) -> Result<Self, InvalidParamsError> {
        let ctl = ReactiveController::builder(params)
            .log_policy(TransitionLogPolicy::CountsOnly)
            .build()?;
        Ok(Tenant {
            id,
            quota,
            ctl,
            bytes_ingested: 0,
            accepted_events: 0,
            rejected_events: 0,
            stream_digest: FNV_OFFSET,
        })
    }

    /// Tenant id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Lifetime accepted events.
    pub fn accepted_events(&self) -> u64 {
        self.accepted_events
    }

    /// Lifetime refused events (decode failures count as one each, since
    /// the true event count of a malformed payload is unknowable).
    pub fn rejected_events(&self) -> u64 {
        self.rejected_events
    }

    /// Lifetime accepted payload bytes.
    pub fn bytes_ingested(&self) -> u64 {
        self.bytes_ingested
    }

    /// Running [`fnv1a`] digest over every accepted payload, in order. Two
    /// tenants have equal digests iff they accepted byte-identical
    /// payload sequences — the strong form of the restart- and
    /// determinism-identity checks (event counts and byte totals alone
    /// cannot distinguish same-sized streams).
    pub fn stream_digest(&self) -> u64 {
        self.stream_digest
    }

    /// The controller's statistics.
    pub fn stats(&self) -> ControlStats {
        self.ctl.stats()
    }

    /// Admits one `Events` payload: decode the RSCT stream, apply both
    /// quotas, and feed the controller. All-or-nothing — a frame that
    /// would cross a quota is refused whole, so a client can reason
    /// about exactly which events were observed.
    ///
    /// # Errors
    ///
    /// Returns an [`IngestReject`] carrying a [`RejectCode`]:
    /// `BadPayload` for streams the hardened trace reader refuses,
    /// `QuotaEvents`/`QuotaBytes` when a limit would be crossed.
    pub fn ingest(&mut self, payload: &[u8]) -> Result<IngestReport, IngestReject> {
        let records = match read_trace_with_limit(&mut &payload[..], MAX_TRACE_EVENTS) {
            Ok(r) => r,
            Err(e) => {
                self.rejected_events += 1;
                return Err(IngestReject {
                    code: RejectCode::BadPayload,
                    detail: reject_detail(&e),
                });
            }
        };
        let n = records.len() as u64;
        if self.quota.max_events > 0
            && self.accepted_events.saturating_add(n) > self.quota.max_events
        {
            self.rejected_events += n;
            return Err(IngestReject {
                code: RejectCode::QuotaEvents,
                detail: format!(
                    "event quota: {} accepted + {} offered > {} allowed",
                    self.accepted_events, n, self.quota.max_events
                ),
            });
        }
        let bytes = payload.len() as u64;
        if self.quota.max_bytes > 0
            && self.bytes_ingested.saturating_add(bytes) > self.quota.max_bytes
        {
            self.rejected_events += n;
            return Err(IngestReject {
                code: RejectCode::QuotaBytes,
                detail: format!(
                    "byte quota: {} ingested + {} offered > {} allowed",
                    self.bytes_ingested, bytes, self.quota.max_bytes
                ),
            });
        }
        self.ctl.observe_chunk(&records);
        self.accepted_events += n;
        self.bytes_ingested += bytes;
        self.stream_digest = fnv1a(self.stream_digest, payload);
        Ok(IngestReport {
            accepted: n,
            tenant_events: self.accepted_events,
        })
    }

    /// Serializes this tenant for eviction or drain.
    pub fn to_record(&self) -> TenantRecord {
        TenantRecord {
            tenant: self.id,
            bytes_ingested: self.bytes_ingested,
            rejected_events: self.rejected_events,
            stream_digest: self.stream_digest,
            checkpoint: self.ctl.snapshot(),
        }
    }

    /// Rebuilds a tenant from a durable record. The accepted-event total
    /// is recovered from the controller's own statistics, so the record
    /// header stays minimal.
    ///
    /// # Errors
    ///
    /// Propagates the strict checkpoint decode — a corrupted or
    /// version-confused blob, or a sharded checkpoint written while
    /// tenants ran several controller shards, is a typed
    /// [`CheckpointError`], never a panic.
    pub fn from_record(rec: &TenantRecord, quota: QuotaConfig) -> Result<Self, CheckpointError> {
        let ctl = ReactiveController::restore(&rec.checkpoint)?;
        let accepted_events = ctl.stats().events;
        Ok(Tenant {
            id: rec.tenant,
            quota,
            ctl,
            bytes_ingested: rec.bytes_ingested,
            accepted_events,
            rejected_events: rec.rejected_events,
            stream_digest: rec.stream_digest,
        })
    }
}

fn reject_detail(e: &TraceIoError) -> String {
    format!("trace stream rejected: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::adversary::Scenario;
    use rsc_trace::io::write_trace;

    fn payload(events: u64, seed: u64) -> Vec<u8> {
        let records = Scenario::UniformRandom { branches: 32 }.generate(events, seed);
        let mut buf = Vec::new();
        write_trace(&mut buf, records).unwrap();
        buf
    }

    fn tenant(quota: QuotaConfig) -> Tenant {
        Tenant::new(1, ControllerParams::scaled(), quota).unwrap()
    }

    #[test]
    fn ingest_feeds_controller_and_counts() {
        let mut t = tenant(QuotaConfig::unlimited());
        let p = payload(500, 9);
        let report = t.ingest(&p).unwrap();
        assert_eq!(report.accepted, 500);
        assert_eq!(report.tenant_events, 500);
        assert_eq!(t.accepted_events(), 500);
        assert_eq!(t.bytes_ingested(), p.len() as u64);
        assert_eq!(t.stats().events, 500);
        let report = t.ingest(&p).unwrap();
        assert_eq!(report.tenant_events, 1000);
    }

    #[test]
    fn event_quota_rejects_whole_frames() {
        let mut t = tenant(QuotaConfig {
            max_events: 700,
            max_bytes: 0,
        });
        let p = payload(500, 9);
        t.ingest(&p).unwrap();
        let rej = t.ingest(&p).unwrap_err();
        assert_eq!(rej.code, RejectCode::QuotaEvents);
        // All-or-nothing: the second frame observed nothing.
        assert_eq!(t.accepted_events(), 500);
        assert_eq!(t.rejected_events(), 500);
        assert_eq!(t.stats().events, 500);
    }

    #[test]
    fn byte_quota_rejects_whole_frames() {
        let p = payload(200, 3);
        let mut t = tenant(QuotaConfig {
            max_events: 0,
            max_bytes: p.len() as u64 + 10,
        });
        t.ingest(&p).unwrap();
        let rej = t.ingest(&p).unwrap_err();
        assert_eq!(rej.code, RejectCode::QuotaBytes);
        assert_eq!(t.bytes_ingested(), p.len() as u64);
    }

    #[test]
    fn malformed_payload_is_a_typed_reject() {
        let mut t = tenant(QuotaConfig::unlimited());
        let mut p = payload(100, 5);
        p.truncate(p.len() - 3);
        let rej = t.ingest(&p).unwrap_err();
        assert_eq!(rej.code, RejectCode::BadPayload);
        assert_eq!(t.accepted_events(), 0);
        assert_eq!(t.rejected_events(), 1);
        assert!(t.ingest(b"not a trace").is_err());
    }

    #[test]
    fn record_roundtrip_is_bit_identical() {
        let mut t = tenant(QuotaConfig {
            max_events: 10_000,
            max_bytes: 0,
        });
        t.ingest(&payload(800, 2)).unwrap();
        t.ingest(&payload(11_000, 3)).unwrap_err();
        let rec = t.to_record();
        let back = Tenant::from_record(
            &rec,
            QuotaConfig {
                max_events: 10_000,
                max_bytes: 0,
            },
        )
        .unwrap();
        assert_eq!(back.accepted_events(), t.accepted_events());
        assert_eq!(back.rejected_events(), t.rejected_events());
        assert_eq!(back.bytes_ingested(), t.bytes_ingested());
        assert_eq!(back.to_record(), rec, "snapshot of restore is identical");
        assert_eq!(back.stats(), t.stats());
    }

    /// Restores a tenant record's controller, which exposes the
    /// transition log.
    fn restored_log(t: &Tenant) -> rsc_control::TransitionLog {
        ReactiveController::restore(&t.to_record().checkpoint)
            .unwrap()
            .transition_log()
            .clone()
    }

    #[test]
    fn records_keep_transition_counts_but_no_events() {
        let mut t = tenant(QuotaConfig::unlimited());
        t.ingest(&payload(40_000, 4)).unwrap();
        let log = restored_log(&t);
        assert!(log.total() > 0, "the frame caused transitions");
        assert!(log.is_empty(), "no transition events are retained");
        assert_eq!(log.policy(), TransitionLogPolicy::CountsOnly);
    }

    #[test]
    fn full_log_records_restore_with_their_policy() {
        // A record written while tenants still kept every transition.
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .build()
            .unwrap();
        let records = rsc_trace::io::read_trace(&mut &payload(40_000, 4)[..]).unwrap();
        ctl.observe_chunk(&records);
        let rec = TenantRecord {
            tenant: 1,
            bytes_ingested: 0,
            rejected_events: 0,
            stream_digest: FNV_OFFSET,
            checkpoint: ctl.snapshot(),
        };
        let mut back = Tenant::from_record(&rec, QuotaConfig::unlimited()).unwrap();
        assert_eq!(back.to_record(), rec);
        back.ingest(&payload(40_000, 5)).unwrap();
        let log = restored_log(&back);
        assert_eq!(log.policy(), TransitionLogPolicy::Full);
        assert_eq!(log.len() as u64, log.total());
    }

    #[test]
    fn sharded_checkpoint_records_are_refused_with_a_typed_error() {
        // A record written while tenants ran two controller shards.
        let mut ctl = ReactiveController::builder(ControllerParams::scaled())
            .shards(2)
            .build_sharded()
            .unwrap();
        let records = rsc_trace::io::read_trace(&mut &payload(4_000, 4)[..]).unwrap();
        ctl.observe_chunk(&records);
        let rec = TenantRecord {
            tenant: 1,
            bytes_ingested: 0,
            rejected_events: 0,
            stream_digest: FNV_OFFSET,
            checkpoint: ctl.snapshot(),
        };
        let err = Tenant::from_record(&rec, QuotaConfig::unlimited()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { what, .. } if what.starts_with("sharded checkpoint")),
            "{err}"
        );
    }

    #[test]
    fn quota_keeps_counting_after_restore() {
        let mut t = tenant(QuotaConfig {
            max_events: 600,
            max_bytes: 0,
        });
        t.ingest(&payload(500, 1)).unwrap();
        let rec = t.to_record();
        let mut back = Tenant::from_record(
            &rec,
            QuotaConfig {
                max_events: 600,
                max_bytes: 0,
            },
        )
        .unwrap();
        // 500 of 600 already used; 200 more must be refused.
        assert!(back.ingest(&payload(200, 2)).is_err());
        assert_eq!(back.ingest(&payload(100, 2)).unwrap().tenant_events, 600);
    }
}
