//! The event model: one fixed-size record type shared by every producer
//! (the wait-free per-thread recorders, the mpisim engine hooks, and the
//! cluster DES's virtual-time log) and every sink (Chrome trace export,
//! phase summary, benchmark artifacts).

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `wall_ns`/`logical` are the start, `value` is the
    /// duration in nanoseconds.
    Span,
    /// An instantaneous marker: `value` is an id-specific payload (e.g. the
    /// collective sequence number).
    Mark,
    /// A counter increment: `value` is the delta.
    Count,
}

impl EventKind {
    pub(crate) fn code(self) -> u64 {
        match self {
            EventKind::Span => 0,
            EventKind::Mark => 1,
            EventKind::Count => 2,
        }
    }

    pub(crate) fn from_code(c: u64) -> Self {
        match c {
            0 => EventKind::Span,
            1 => EventKind::Mark,
            _ => EventKind::Count,
        }
    }
}

/// Macro defining an id enum with stable `u8` codes, a `name()` table (the
/// strings appearing in traces and artifacts — part of the schema, see
/// DESIGN.md §9), an exhaustive `ALL` array, and a lossy decoder.
macro_rules! id_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident = ($code:expr, $str:expr),)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant = $code,)+
        }

        impl $name {
            /// Every variant, in code order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Stable schema name of this id.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }

            /// Decodes a `u8` code; unknown codes map to `None`.
            pub fn from_code(c: u8) -> Option<Self> {
                match c {
                    $($code => Some($name::$variant),)+
                    _ => None,
                }
            }

            /// Dense index of this id within [`Self::ALL`].
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

id_enum! {
    /// Span identities — the phases and sub-phases of the paper's three-phase
    /// pipeline (Section III-A) plus the adaptive-sampling internals broken
    /// out in Fig. 2b / Table II.
    SpanId {
        /// Phase 1: sequential diameter computation.
        Diameter = (0, "diameter"),
        /// Phase 2: calibration sampling + δ fit.
        Calibration = (1, "calibration"),
        /// Phase 3 as a whole.
        AdaptiveSampling = (2, "adaptive_sampling"),
        /// One n0-sample batch taken by the coordinating thread.
        SampleBatch = (3, "sample_batch"),
        /// In-process aggregation of an epoch's per-thread state frames.
        FrameAggregate = (4, "frame_aggregate"),
        /// Overlapped wait on a round's non-blocking reduction — the gather
        /// of sparse frames (samples continue).
        IreduceWait = (5, "ireduce_wait"),
        /// Blocking reduction (the paper's Section IV-F leader reduce; a
        /// gather of the nodes' sparse frames).
        Reduce = (6, "reduce"),
        /// Overlapped wait inside `MPI_Ibarrier`.
        IbarrierWait = (7, "ibarrier_wait"),
        /// The root's fold of a round's frames and its stopping-condition
        /// evaluation.
        Check = (8, "check"),
        /// Overlapped wait on the termination-flag broadcast.
        BcastStop = (9, "bcast_stop"),
        /// Overlapped wait for an epoch transition to complete.
        TransitionWait = (10, "transition_wait"),
        /// Shrink-and-continue recovery after a rank failure: communicator
        /// shrink plus the ledger all-reduce rebuilding the global state.
        Recovery = (11, "recovery"),
        /// One served query (estimate / top-k / vertex) in `kadabra-server`,
        /// admission to reply (DESIGN.md §13).
        Query = (12, "query"),
        /// One accuracy-on-deadline refinement request in `kadabra-server`.
        Refine = (13, "refine"),
        /// One estimate-cache publication (frontier flip or stage freeze)
        /// by the server's sampler pool.
        CachePublish = (14, "cache_publish"),
        /// One streaming update batch applied to a dynamic tenant: delta-log
        /// append, overlay apply, revalidation, and the ledger all-reduce.
        Update = (15, "update"),
        /// The affected-pair sweep inside an update: endpoint BFS distance
        /// tables plus per-sample classification and redraw.
        Invalidate = (16, "invalidate"),
        /// Elastic rebalance after a communicator grow: the round handoff
        /// broadcast plus the ledger all-reduce bootstrapping newcomers.
        Rebalance = (17, "rebalance"),
    }
}

/// Number of distinct [`SpanId`]s (arrays in the recorder are this long).
pub const N_SPANS: usize = 18;

id_enum! {
    /// Counter identities.
    CounterId {
        /// Samples taken (calibration + adaptive, all threads).
        Samples = (0, "samples"),
        /// Epochs advanced / stopping-condition rounds completed.
        Epochs = (1, "epochs"),
        /// Payload bytes contributed to the rounds' reductions (8 per
        /// sparse-frame entry).
        BytesReduced = (2, "bytes_reduced"),
        /// `test()` polls of non-blocking requests that returned `false`
        /// (each one is one overlapped unit of work).
        OverlapPolls = (3, "overlap_polls"),
        /// Collective operations joined.
        Collectives = (4, "collectives"),
        /// Ranks declared dead and excluded by a communicator shrink.
        RanksLost = (5, "ranks_lost"),
        /// Queries answered by `kadabra-server` (estimate, top-k, vertex,
        /// refine — anything that produced a reply).
        QueriesServed = (6, "queries_served"),
        /// Queries load-shed by admission control (in-flight or queue cap).
        QueriesShed = (7, "queries_shed"),
        /// Edge insertions + deletions applied through the delta log.
        EdgesApplied = (8, "edges_applied"),
        /// Retained samples classified as invalidated by an update batch
        /// (and therefore redrawn on the new graph).
        SamplesInvalidated = (9, "samples_invalidated"),
        /// Retained samples whose shortest-path sets provably survived an
        /// update batch (kept without redrawing).
        SamplesRetained = (10, "samples_retained"),
        /// Standby ranks admitted by a communicator grow.
        RanksJoined = (11, "ranks_joined"),
        /// Samples the cluster simulator's steal model moves from
        /// stragglers to helpers (`kadabra-cluster`'s `SimConfig::steal`).
        SamplesStolen = (12, "samples_stolen"),
    }
}

/// Number of distinct [`CounterId`]s.
pub const N_COUNTERS: usize = 13;

id_enum! {
    /// Instantaneous-marker identities (mpisim engine events).
    MarkId {
        /// A rank joined a collective; `value` is the operation sequence
        /// number within its communicator.
        CollectiveStart = (0, "collective_start"),
        /// A rank observed completion of a collective; `value` is the
        /// operation sequence number.
        CollectiveComplete = (1, "collective_complete"),
    }
}

/// One telemetry record. See [`EventKind`] for field semantics per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// MPI rank (or simulated process) that produced the event.
    pub rank: u32,
    /// Thread within the rank.
    pub thread: u32,
    /// Record kind.
    pub kind: EventKind,
    /// Id code; decode with [`SpanId::from_code`] / [`CounterId::from_code`]
    /// / [`MarkId::from_code`] according to `kind`.
    pub id: u8,
    /// Epoch the producer was in when the event was recorded.
    pub epoch: u32,
    /// Wall-clock nanoseconds since the run origin (0 in deterministic
    /// mode — see [`crate::clock::Clock`]).
    pub wall_ns: u64,
    /// Logical-clock reading at the event (ticks of the producer's
    /// deterministic clock: overlapped polls, rounds, DES virtual time).
    pub logical: u64,
    /// Kind-specific payload (span duration ns / counter delta / marker
    /// payload).
    pub value: u64,
}

impl Event {
    /// Human-readable name of the event's id, according to its kind.
    pub fn name(&self) -> &'static str {
        match self.kind {
            EventKind::Span => SpanId::from_code(self.id).map_or("span?", SpanId::name),
            EventKind::Mark => MarkId::from_code(self.id).map_or("mark?", MarkId::name),
            EventKind::Count => CounterId::from_code(self.id).map_or("count?", CounterId::name),
        }
    }

    /// Packs kind/id/epoch into the single `meta` word the wait-free slots
    /// store.
    pub(crate) fn pack_meta(kind: EventKind, id: u8, epoch: u32) -> u64 {
        kind.code() | (u64::from(id) << 8) | (u64::from(epoch) << 32)
    }

    /// Inverse of [`Event::pack_meta`].
    pub(crate) fn unpack_meta(meta: u64) -> (EventKind, u8, u32) {
        (EventKind::from_code(meta & 0xff), ((meta >> 8) & 0xff) as u8, (meta >> 32) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        for kind in [EventKind::Span, EventKind::Mark, EventKind::Count] {
            for id in [0u8, 3, 10, 255] {
                for epoch in [0u32, 1, u32::MAX] {
                    let m = Event::pack_meta(kind, id, epoch);
                    assert_eq!(Event::unpack_meta(m), (kind, id, epoch));
                }
            }
        }
    }

    #[test]
    fn id_tables_are_consistent() {
        assert_eq!(SpanId::ALL.len(), N_SPANS);
        assert_eq!(CounterId::ALL.len(), N_COUNTERS);
        for (i, s) in SpanId::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(SpanId::from_code(i as u8), Some(*s));
        }
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(CounterId::from_code(i as u8), Some(*c));
        }
        assert_eq!(SpanId::SampleBatch.name(), "sample_batch");
        assert_eq!(SpanId::from_code(200), None);
    }
}
