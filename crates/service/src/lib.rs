//! # wlac-service — persistent verification sessions
//!
//! The paper's checker decides one assertion at a time; real deployments
//! check hundreds of properties against the same design, and ask the same
//! questions again. This crate is the long-lived layer around the checker:
//! a [`VerificationService`] owns
//!
//! * a **design registry** keyed by structural hash ([`design_hash`]) — a
//!   netlist registered twice is the same design and shares everything
//!   below;
//! * a per-design [`KnowledgeBase`]: design-valid CDCL clauses lifted to
//!   frame-relative form (replayable at any unrolling bound) for SAT BMC,
//!   and the per-design engine win/loss history driving the scheduling
//!   predictor;
//! * a **verdict cache** keyed by (design hash, property hash, config) that
//!   answers repeat queries without spawning a single engine;
//! * a **work-queue front door** — [`VerificationService::submit`] (jobs
//!   that reference a registered design by hash),
//!   [`VerificationService::submit_batch`] (jobs that carry their netlist),
//!   [`VerificationService::batch_progress`],
//!   [`VerificationService::results`] — with a worker pool sharding jobs
//!   across CPUs. `submit` answers cache hits itself, before it returns,
//!   so only misses reach the pool. A queued job holds no
//!   netlist: a cache hit never reads one, and a raced job copies its
//!   design out of the registry once, on the worker.
//!
//! Every ATPG run of the service is [`wlac_atpg::AssertionChecker::check`],
//! the check Table 2 runs, with an ESTG of its own: a property's search does
//! not depend on which properties of its design ran before it
//! (`tests/service.rs` at the workspace root pins this). Clause learning is
//! strictly effort-shaping, never verdict-shaping: clauses are only exported
//! when their derivation stayed inside the design's transition structure
//! (taint-tracked in the CDCL solver), and `tests/service.rs` proves warm
//! and cold SAT BMC agree on every outcome across the circuits suite. A
//! knowledge base offered from outside is validated against the design hash
//! and structure and rejected — [`KnowledgeError`] — rather than trusted.
//!
//! # Examples
//!
//! ```
//! use wlac_service::{ServiceConfig, VerificationService};
//! use wlac_atpg::{Property, Verification};
//! use wlac_bv::Bv;
//! use wlac_netlist::Netlist;
//!
//! // One design, two properties.
//! let mut nl = Netlist::new("sat_counter");
//! let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
//! let one = nl.constant(&Bv::from_u64(8, 1));
//! let plus = nl.add(q, one);
//! let ten = nl.constant(&Bv::from_u64(8, 10));
//! let at_ten = nl.eq(q, ten);
//! let next = nl.mux(at_ten, ten, plus);
//! nl.connect_dff_data(ff, next);
//! let eleven = nl.constant(&Bv::from_u64(8, 11));
//! let below = nl.lt(q, eleven);
//! let five = nl.constant(&Bv::from_u64(8, 5));
//! let hits_five = nl.eq(q, five);
//!
//! let p1 = Verification::new(nl.clone(), Property::always(&nl, "below_11", below));
//! let p2 = Verification::new(nl.clone(), Property::eventually(&nl, "reach_5", hits_five));
//!
//! let service = VerificationService::new(ServiceConfig::default());
//! let batch = service.submit_batch(vec![p1.clone(), p2]);
//! let results = service.wait(batch);
//! assert!(results[0].verdict.is_pass());
//! assert!(!results[0].from_cache);
//!
//! // The same query again is a pure cache hit: no engine spawns.
//! let again = service.submit_batch(vec![p1]);
//! let results = service.wait(again);
//! assert!(results[0].from_cache);
//! assert_eq!(results[0].engines_spawned, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serving path must degrade, not die: every fallible unwrap is a
// potential crash a fault can reach, so they are banned outside tests
// (see clippy.toml for the test exemption).
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod durability;
mod faultreport;
mod hash;
mod knowledge;
mod session;

pub use durability::{DurabilityHook, DurabilityRecord, DurabilitySink};
pub use faultreport::{FaultReport, FaultReportHook, FaultSink};
pub use hash::{config_fingerprint, design_hash, property_hash, DesignHash, PropertyHash};
pub use knowledge::{
    ClauseBank, KnowledgeBase, KnowledgeError, KnowledgeStats, DEFAULT_CLAUSE_CAP,
};
pub use session::{
    BatchId, BatchProgress, Job, JobProgress, JobResult, ServiceConfig, ServiceStats,
    VerdictRecord, VerificationService, DEFAULT_CACHE_CAPACITY, DEFAULT_RETAINED_BATCHES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wlac_atpg::{Property, Verification};
    use wlac_bv::Bv;
    use wlac_netlist::Netlist;
    use wlac_portfolio::{PortfolioConfig, Verdict};

    /// A counter wrapping at `wrap`, asserted to stay below `limit`.
    fn counter(limit: u64, wrap: u64, name: &str) -> Verification {
        let mut nl = Netlist::new("counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let wrap_net = nl.constant(&Bv::from_u64(4, wrap));
        let at_wrap = nl.eq(q, wrap_net);
        let zero = nl.constant(&Bv::zero(4));
        let next = nl.mux(at_wrap, zero, plus);
        nl.connect_dff_data(ff, next);
        let limit_net = nl.constant(&Bv::from_u64(4, limit));
        let ok = nl.lt(q, limit_net);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, name, ok);
        Verification::new(nl, property)
    }

    fn quick_config() -> ServiceConfig {
        let mut config = ServiceConfig::default();
        config.portfolio.checker.time_limit = Duration::from_secs(20);
        config.workers = 2;
        config
    }

    #[test]
    fn batch_results_come_back_in_job_order() {
        let service = VerificationService::new(quick_config());
        let batch = service.submit_batch(vec![
            counter(12, 5, "j0"),
            counter(5, 12, "j1"),
            counter(9, 4, "j2"),
        ]);
        let results = service.wait(batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].property, "j0");
        assert!(results[0].verdict.is_pass());
        assert!(matches!(results[1].verdict, Verdict::Violated { .. }));
        assert!(results[2].verdict.is_pass());
        let progress = service.batch_progress(batch).expect("known batch");
        assert!(progress.done());
        assert_eq!(progress.total, 3);
    }

    #[test]
    fn repeat_submission_hits_the_cache_without_engines() {
        let service = VerificationService::new(quick_config());
        let first = service.submit_batch(vec![counter(12, 5, "p"), counter(5, 12, "q")]);
        let cold = service.wait(first);
        assert!(cold.iter().all(|r| !r.from_cache));

        let second = service.submit_batch(vec![counter(12, 5, "p"), counter(5, 12, "q")]);
        let warm = service.wait(second);
        assert!(warm.iter().all(|r| r.from_cache));
        assert!(warm.iter().all(|r| r.engines_spawned == 0));
        // Cached verdicts agree with the raced ones.
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                std::mem::discriminant(&c.verdict),
                std::mem::discriminant(&w.verdict)
            );
        }
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 2);
        assert!(stats.cache_hit_rate() > 0.0);
        assert_eq!(stats.designs, 2, "two distinct structures were registered");
    }

    #[test]
    fn same_structure_shares_one_design_entry() {
        let service = VerificationService::new(quick_config());
        let a = service.register_design(&counter(12, 5, "x").netlist);
        let b = service.register_design(&counter(12, 5, "y").netlist);
        assert_eq!(a, b);
        assert_eq!(service.stats().designs, 1);
    }

    #[test]
    fn a_registered_design_is_looked_up_by_its_hash() {
        let service = VerificationService::new(quick_config());
        let netlist = counter(12, 5, "x").netlist;
        let design = service.register_design(&netlist);
        let stored = service.design(design).expect("registered design");
        assert_eq!(design_hash(&stored), design);
        assert_eq!(service.designs(), vec![design]);
        // Two lookups share the registry's netlist rather than copying it.
        let again = service.design(design).expect("registered design");
        assert!(std::sync::Arc::ptr_eq(&stored, &again));
        let other = design_hash(&counter(12, 6, "y").netlist);
        assert!(service.design(other).is_none());
    }

    #[test]
    fn racing_accumulates_knowledge_for_the_design() {
        let service = VerificationService::new(quick_config());
        let verification = counter(5, 12, "v");
        let design = design_hash(&verification.netlist);
        let batch = service.submit_batch(vec![verification]);
        let _ = service.wait(batch);
        let kb = service.export_knowledge(design).expect("registered design");
        assert_eq!(kb.design(), design);
        // The race was absorbed into the design's knowledge base.
        let stats = service.knowledge_stats(design).expect("stats");
        assert_eq!(stats.races_absorbed, 1);
        assert_eq!(stats.clauses_rejected, 0);
    }

    /// The by-reference job for a self-contained verification.
    fn by_reference(service: &VerificationService, verification: &Verification) -> Job {
        Job {
            design: service.register_design(&verification.netlist),
            property: verification.property.clone(),
            environment: verification.environment.clone(),
        }
    }

    #[test]
    fn a_job_by_reference_hits_the_entry_its_verification_filled() {
        for verification in [counter(12, 5, "holds"), counter(5, 12, "fails")] {
            let service = VerificationService::new(quick_config());
            let cold = service.wait(service.submit_batch(vec![verification.clone()]));
            let job = by_reference(&service, &verification);
            let warm = service.wait(service.submit(vec![job]));
            assert!(!cold[0].from_cache);
            assert!(warm[0].from_cache);
            assert_eq!(warm[0].engines_spawned, 0);
            assert_eq!(warm[0].verdict, cold[0].verdict);
            assert_eq!(warm[0].winner, cold[0].winner);
            assert_eq!(warm[0].design, cold[0].design);
            assert_eq!(service.stats().cached_verdicts, 1);
        }
    }

    #[test]
    fn a_verification_hits_the_entry_its_job_by_reference_filled() {
        for verification in [counter(12, 5, "holds"), counter(5, 12, "fails")] {
            let service = VerificationService::new(quick_config());
            let job = by_reference(&service, &verification);
            let cold = service.wait(service.submit(vec![job]));
            let warm = service.wait(service.submit_batch(vec![verification]));
            assert!(!cold[0].from_cache);
            assert!(warm[0].from_cache);
            assert_eq!(warm[0].engines_spawned, 0);
            assert_eq!(warm[0].verdict, cold[0].verdict);
            assert_eq!(warm[0].winner, cold[0].winner);
            assert_eq!(service.stats().cached_verdicts, 1);
        }
    }

    #[test]
    fn a_job_naming_an_unregistered_design_completes_unknown() {
        let service = VerificationService::new(quick_config());
        let verification = counter(12, 5, "p");
        let job = Job {
            design: design_hash(&verification.netlist),
            property: verification.property,
            environment: verification.environment,
        };
        let results = service.wait(service.submit(vec![job]));
        assert!(
            matches!(&results[0].verdict, Verdict::Unknown { reason } if reason.contains("not registered")),
            "{:?}",
            results[0].verdict
        );
        assert_eq!(results[0].engines_spawned, 0);
        assert_eq!(service.stats().cached_verdicts, 0);
    }

    #[test]
    fn batch_progress_reports_empty_and_unknown_batches() {
        let service = VerificationService::new(quick_config());
        let batch = service.submit_batch(Vec::new());
        let progress = service.batch_progress(batch).expect("known batch");
        assert!(progress.done());
        assert_eq!(progress.total, 0);
        assert!(service.results(batch).expect("empty batch done").is_empty());
        let bogus = service.batch_progress(BatchId::from_raw(9999));
        assert!(bogus.is_none());
    }

    #[test]
    fn import_of_a_poisoned_store_is_rejected() {
        let service = VerificationService::new(quick_config());
        let verification = counter(12, 5, "v");
        let design = service.register_design(&verification.netlist);

        // A store bound to a different design is rejected outright.
        let other = counter(12, 6, "w");
        let foreign = KnowledgeBase::new(design_hash(&other.netlist));
        assert!(matches!(
            service.import_knowledge(design, &foreign),
            Err(KnowledgeError::DesignMismatch { .. })
        ));

        // A clean round-trip works.
        let exported = service.export_knowledge(design).expect("registered");
        assert!(service.import_knowledge(design, &exported).is_ok());
    }

    #[test]
    fn verdict_cache_is_lru_bounded() {
        let mut config = quick_config();
        config.cache_capacity = 2;
        let service = VerificationService::new(config);
        // Three distinct queries through a 2-entry cache: one eviction.
        let batch = service.submit_batch(vec![
            counter(12, 5, "a"),
            counter(9, 4, "b"),
            counter(5, 12, "c"),
        ]);
        let _ = service.wait(batch);
        let stats = service.stats();
        assert_eq!(stats.cached_verdicts, 2);
        assert_eq!(stats.cache_evictions, 1);
        assert_eq!(stats.cache_misses, 3);
    }

    #[test]
    fn retrieved_batches_are_retired_beyond_the_bound() {
        let mut config = quick_config();
        config.retained_batches = 1;
        let service = VerificationService::new(config);
        let first = service.submit_batch(vec![counter(12, 5, "a")]);
        let _ = service.wait(first);
        assert!(
            service.batch_progress(first).is_some(),
            "within the retention bound"
        );
        let second = service.submit_batch(vec![counter(12, 5, "b")]);
        let _ = service.wait(second);
        // Retrieving the second batch pushed the first past the bound.
        assert!(
            service.batch_progress(first).is_none(),
            "oldest retrieved evicted"
        );
        assert!(service.batch_progress(second).is_some());
        // An unretrieved batch is never evicted, no matter how many
        // retrievals happen after it.
        let third = service.submit_batch(vec![counter(12, 5, "c")]);
        for _ in 0..3 {
            let again = service.submit_batch(vec![counter(12, 5, "b")]);
            let _ = service.wait(again);
        }
        assert!(
            service.batch_progress(third).is_some(),
            "unretrieved batch survives"
        );
        let _ = service.wait(third);
    }

    #[test]
    fn verdicts_export_and_reimport_across_sessions() {
        let service = VerificationService::new(quick_config());
        let pass = counter(12, 5, "p");
        let fail = counter(5, 12, "q");
        let design_pass = design_hash(&pass.netlist);
        let design_fail = design_hash(&fail.netlist);
        let cold = service.wait(service.submit_batch(vec![pass.clone(), fail.clone()]));
        let pass_records = service.export_verdicts(design_pass).expect("registered");
        let fail_records = service.export_verdicts(design_fail).expect("registered");
        assert_eq!(pass_records.len(), 1);
        assert_eq!(fail_records.len(), 1);
        assert!(fail_records[0].verdict.trace().is_some(), "violation trace");

        // A fresh session warm-started from the exported records answers the
        // same queries from the cache, with identical verdicts.
        let restarted = VerificationService::new(quick_config());
        restarted.register_design(&pass.netlist);
        restarted.register_design(&fail.netlist);
        assert_eq!(restarted.import_verdicts(design_pass, &pass_records), Ok(1));
        assert_eq!(restarted.import_verdicts(design_fail, &fail_records), Ok(1));
        let warm = restarted.wait(restarted.submit_batch(vec![pass, fail]));
        assert!(warm.iter().all(|r| r.from_cache));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                std::mem::discriminant(&c.verdict),
                std::mem::discriminant(&w.verdict)
            );
        }

        // A record whose trace names a foreign net is rejected outright.
        let mut poisoned = fail_records.clone();
        if let Verdict::Violated { trace } = &mut poisoned[0].verdict {
            trace
                .initial_state
                .push((wlac_netlist::NetId::from_index(9999), Bv::zero(4)));
        }
        assert!(matches!(
            restarted.import_verdicts(design_fail, &poisoned),
            Err(KnowledgeError::MalformedVerdict { index: 0 })
        ));

        // Unregistered designs cannot receive verdicts.
        assert!(restarted
            .import_verdicts(DesignHash(42), &pass_records)
            .is_err());
    }

    #[test]
    fn metrics_registry_tracks_jobs_cache_and_core_effort() {
        let registry = std::sync::Arc::new(wlac_telemetry::MetricsRegistry::new());
        let service = VerificationService::with_metrics(quick_config(), registry.clone());
        let batch = service.submit_batch(vec![counter(12, 5, "p"), counter(5, 12, "q")]);
        let _ = service.wait(batch);
        let again = service.submit_batch(vec![counter(12, 5, "p")]);
        let _ = service.wait(again);

        assert_eq!(registry.counter("service_jobs_submitted_total").get(), 3);
        assert_eq!(registry.counter("service_jobs_completed_total").get(), 3);
        assert_eq!(registry.counter("service_cache_hits_total").get(), 1);
        assert_eq!(registry.counter("service_cache_misses_total").get(), 2);
        assert_eq!(registry.histogram("service_job_wall_ns").count(), 3);
        // Idle service: the queue is drained and no worker is mid-job. The
        // busy gauge is decremented *after* a job's completion is published
        // (waiters can win that race), so poll briefly for it to settle.
        let settles_to_zero = |gauge: &str| {
            for _ in 0..400 {
                if registry.gauge(gauge).get() == 0.0 {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            false
        };
        assert!(settles_to_zero("service_queue_depth"));
        assert!(settles_to_zero("service_workers_busy"));
        // The raced jobs spawned the ATPG engine, whose search effort is
        // aggregated into the core counters.
        // (Decisions can legitimately be zero — implication alone decides
        // these tiny counters — but implication always evaluates gates.)
        assert!(registry.counter("core_gate_evaluations_total").get() > 0);
        // p's induction step (q < 12 at frame 0, q' >= 12 at frame 1) is a
        // comparator over a free register: the datapath leaf splits bits.
        assert!(registry.counter("core_datapath_splits_total").get() > 0);
        // The portfolio layer shares the same registry.
        assert_eq!(registry.counter("portfolio_races_total").get(), 2);
    }

    #[test]
    fn stats_counts_are_the_registry_counters() {
        use wlac_faultinject::{FaultPlan, FaultSite};
        let registry = std::sync::Arc::new(wlac_telemetry::MetricsRegistry::new());
        let mut config = quick_config();
        config.workers = 1;
        config.faults = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 1);
        let service = VerificationService::with_metrics(config, registry.clone());
        // One job three times: its worker panics before the cache lookup
        // (quarantined), then it races, then it hits the cache.
        let results: Vec<JobResult> = (0..3)
            .map(|_| service.wait(service.submit_batch(vec![counter(12, 5, "p")]))[0].clone())
            .collect();
        assert!(matches!(results[0].verdict, Verdict::Unknown { .. }));
        assert!(!results[1].from_cache && results[1].verdict.is_definitive());
        assert!(results[2].from_cache);

        let stats = service.stats();
        let count = |name: &str| registry.counter(name).get();
        for (field, value, counter) in [
            ("cache_hits", stats.cache_hits, "service_cache_hits_total"),
            (
                "cache_misses",
                stats.cache_misses,
                "service_cache_misses_total",
            ),
            (
                "predicted_races",
                stats.predicted_races,
                "service_predicted_races_total",
            ),
            (
                "cache_evictions",
                stats.cache_evictions,
                "service_cache_evictions_total",
            ),
            (
                "quarantined_jobs",
                stats.quarantined_jobs,
                "service_jobs_quarantined_total",
            ),
            (
                "timed_out_jobs",
                stats.timed_out_jobs,
                "service_jobs_timed_out_total",
            ),
            (
                "workers_respawned",
                stats.workers_respawned,
                "service_workers_respawned_total",
            ),
        ] {
            assert_eq!(value, count(counter), "{field} vs {counter}");
        }
        // The quarantined job never reached the cache: neither hit nor miss.
        assert_eq!(
            (
                stats.cache_hits,
                stats.cache_misses,
                stats.quarantined_jobs,
                count("service_jobs_completed_total"),
            ),
            (1, 1, 1, 3)
        );
    }

    #[test]
    fn a_cache_hit_never_waits_for_a_worker() {
        use wlac_faultinject::{FaultPlan, FaultSite};
        use wlac_portfolio::Engine;
        // One worker, held by a miss whose ATPG search hangs until the 2 s
        // job budget ends it.
        let mut config = quick_config();
        config.workers = 1;
        config.portfolio = PortfolioConfig::default()
            .with_engines(vec![Engine::Atpg])
            .with_job_budget(Duration::from_secs(2));
        config.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
        let service = VerificationService::new(config.clone());
        let cached = counter(12, 5, "cached");
        let design = service.register_design(&cached.netlist);
        let record = VerdictRecord {
            property: property_hash(&cached.property, &cached.environment),
            config: config_fingerprint(&config.portfolio),
            verdict: Verdict::Holds {
                proved: true,
                frames: 1,
            },
            winner: Some(Engine::Atpg),
        };
        assert_eq!(service.import_verdicts(design, &[record]), Ok(1));
        let held = service.submit_batch(vec![counter(5, 12, "held")]);
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while service.running_jobs().is_empty() {
            assert!(std::time::Instant::now() < deadline, "the miss never ran");
            std::thread::sleep(Duration::from_millis(1));
        }

        let started = std::time::Instant::now();
        let batch = service.submit_batch(vec![cached]);
        let hit = service
            .wait_timeout(batch, Duration::from_millis(500))
            .expect("the hit came back while the worker was held");
        assert!(started.elapsed() < Duration::from_millis(500));
        assert!(hit[0].from_cache, "{:?}", hit[0]);
        assert_eq!(hit[0].engines_spawned, 0);
        assert!(hit[0].verdict.is_definitive());

        let held = service.wait(held);
        assert!(
            matches!(held[0].verdict, Verdict::Timeout { .. }),
            "{:?}",
            held[0]
        );
    }

    #[test]
    fn the_predictor_races_only_the_configured_engines() {
        use wlac_faultinject::{FaultPlan, FaultSite};
        use wlac_portfolio::Engine;
        // ATPG alone, hung until a short job budget ends it. The predictor
        // is on, as by default, and must not add the engines the portfolio
        // leaves out: random simulation would answer this violation.
        let mut config = quick_config();
        assert!(config.predict);
        config.portfolio = PortfolioConfig::default()
            .with_engines(vec![Engine::Atpg])
            .with_job_budget(Duration::from_millis(300));
        config.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
        let service = VerificationService::new(config);
        let batch = service.submit_batch(vec![counter(5, 12, "hung")]);
        let result = service.wait(batch).remove(0);
        assert!(
            matches!(result.verdict, Verdict::Timeout { .. }),
            "{result:?}"
        );
        assert_eq!(result.engines_spawned, 1);
        assert_eq!(result.winner, None);
    }

    /// The persisted store of one race on `verification`'s design: its
    /// knowledge, with one more banked clause so that an import shows in
    /// `stats`, and its verdicts.
    fn exported_store(verification: &Verification) -> (KnowledgeBase, Vec<VerdictRecord>) {
        let design = design_hash(&verification.netlist);
        let service = VerificationService::new(quick_config());
        let _ = service.wait(service.submit_batch(vec![verification.clone()]));
        let mut knowledge = service.export_knowledge(design).expect("registered");
        knowledge.clauses.insert(&wlac_baselines::FrameClause {
            depth: 1,
            lits: vec![wlac_baselines::FrameLit {
                frame: 0,
                net: wlac_netlist::NetId::from_index(0),
                bit: 0,
                negated: true,
            }],
        });
        let verdicts = service.export_verdicts(design).expect("registered");
        (knowledge, verdicts)
    }

    #[test]
    fn restore_returns_the_design_and_its_verdict_count() {
        let verification = counter(12, 5, "p");
        let design = design_hash(&verification.netlist);
        let (knowledge, verdicts) = exported_store(&verification);
        let restarted = VerificationService::new(quick_config());
        assert_eq!(
            restarted.restore(&verification.netlist, &knowledge, &verdicts),
            Ok((design, 1))
        );
        assert!(restarted.stats().clauses_banked >= 1);
        let warm = restarted.wait(restarted.submit_batch(vec![verification]));
        assert!(warm[0].from_cache);
    }

    #[test]
    fn restore_rejects_a_foreign_or_malformed_store_and_imports_nothing() {
        let verification = counter(12, 5, "p");
        let design = design_hash(&verification.netlist);
        let (knowledge, verdicts) = exported_store(&verification);
        let service = VerificationService::new(quick_config());

        // A store bound to another design.
        let foreign = KnowledgeBase::new(design_hash(&counter(12, 6, "q").netlist));
        assert!(matches!(
            service.restore(&verification.netlist, &foreign, &verdicts),
            Err(KnowledgeError::DesignMismatch { .. })
        ));

        // A malformed (non-definitive) verdict rejects the whole store.
        let mut malformed = verdicts.clone();
        malformed[0].verdict = Verdict::Unknown {
            reason: "never cacheable".into(),
        };
        assert_eq!(
            service.restore(&verification.netlist, &knowledge, &malformed),
            Err(KnowledgeError::MalformedVerdict { index: 0 })
        );
        assert_eq!(service.stats().clauses_banked, 0);
        assert_eq!(service.export_verdicts(design).map(|v| v.len()), Some(0));
    }

    #[test]
    fn progress_surface_streams_completions_and_final_probes() {
        let service = VerificationService::new(quick_config());
        let batch = service.submit_batch(vec![counter(12, 5, "p0"), counter(5, 12, "p1")]);
        // Stream completions through the subscriber primitive instead of
        // blocking on the whole batch.
        let mut seen = 0;
        while seen < 2 {
            seen = service
                .wait_batch_change(batch, seen, Duration::from_secs(30))
                .expect("known batch");
        }
        let slots = service.batch_slots(batch).expect("known batch");
        assert_eq!(slots.len(), 2);
        for slot in &slots {
            let (result, probe) = slot.as_ref().expect("completed slot");
            assert!(result.verdict.is_definitive(), "{:?}", result.verdict);
            assert!(probe.bound > 0, "final probe carries the verdict's depth");
            assert!(probe.probes > 0, "every raced job publishes probes");
        }
        // The streaming reads never retired the batch.
        assert_eq!(service.results(batch).expect("batch done").len(), 2);
        let progress = service.batch_progress(batch).expect("retained batch");
        assert!(progress.done());
        assert!(progress.running.is_empty());
        let stats = service.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.running_jobs, 0);
        assert!(service.running_jobs().is_empty());
        // Unknown handles answer None across the whole progress surface.
        let bogus = BatchId::from_raw(9_999);
        assert!(service.batch_progress(bogus).is_none());
        assert!(service.batch_slots(bogus).is_none());
        assert!(service
            .wait_batch_change(bogus, 0, Duration::from_millis(1))
            .is_none());
    }

    #[test]
    fn a_watcher_wakes_on_each_completion_and_a_drain_on_the_last() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // The first ATPG search to start hangs until the job budget; the
        // other job of the batch completes at once.
        let budget = Duration::from_secs(2);
        let mut config = quick_config();
        config.predict = false;
        config.portfolio = PortfolioConfig::default()
            .with_engines(vec![wlac_portfolio::Engine::Atpg])
            .with_job_budget(budget);
        config.portfolio.checker.faults = FaultPlan::new().fire_nth(FaultSite::EngineHang, 1);
        let service = VerificationService::new(config);
        let started = std::time::Instant::now();
        let batch = service.submit_batch(vec![counter(12, 5, "p0"), counter(5, 12, "p1")]);
        // The watcher returns on the first completion, while the batch is
        // still incomplete, long before its own timeout.
        assert_eq!(
            service.wait_batch_change(batch, 0, Duration::from_secs(30)),
            Some(1)
        );
        assert!(started.elapsed() < budget, "{:?}", started.elapsed());
        // The drain returns as soon as the hung job's timeout lands.
        assert!(service.drain_timeout(Duration::from_secs(30)));
        let drained = started.elapsed();
        assert!(
            drained >= budget && drained < budget + Duration::from_secs(1),
            "{drained:?}"
        );
        let results = service.wait(batch);
        let timeouts = results
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Timeout { .. }))
            .count();
        assert_eq!(timeouts, 1, "{results:?}");
    }

    #[test]
    fn cache_hits_synthesize_a_final_probe_from_the_verdict() {
        let service = VerificationService::new(quick_config());
        let cold = service.submit_batch(vec![counter(12, 5, "p")]);
        let _ = service.wait(cold);
        let warm = service.submit_batch(vec![counter(12, 5, "p")]);
        let results = service.wait(warm);
        assert!(results[0].from_cache);
        let slots = service.batch_slots(warm).expect("retained batch");
        let (_, probe) = slots[0].as_ref().expect("completed");
        assert!(
            probe.bound > 0,
            "cache hits still report the verdict's depth: {probe:?}"
        );
    }

    #[test]
    fn prediction_can_be_disabled() {
        // A hung lead escalates the race: without the predictor the whole
        // portfolio joins.
        let mut config = quick_config();
        config.predict = false;
        config.portfolio = PortfolioConfig::default();
        config.portfolio.checker.faults =
            wlac_atpg::FaultPlan::new().fire_from(wlac_atpg::FaultSite::EngineHang, 1);
        let service = VerificationService::new(config);
        let batch = service.submit_batch(vec![counter(12, 5, "p")]);
        let results = service.wait(batch);
        assert!(results[0].verdict.is_pass(), "{:?}", results[0].verdict);
        assert_eq!(
            results[0].engines_spawned, 3,
            "full portfolio without predictor"
        );
    }

    #[test]
    fn engines_spawned_counts_the_engines_a_race_started() {
        // ATPG decides this counter well within its head start, so its race
        // starts it alone. A loaded host can hold the lead past the head
        // start, which escalates the race, so a fresh service retries.
        let mut config = quick_config();
        config.predict = false;
        config.portfolio = PortfolioConfig::default();
        let mut spawned = Vec::new();
        for _ in 0..20 {
            let service = VerificationService::new(config.clone());
            let batch = service.submit_batch(vec![counter(12, 5, "p")]);
            let result = service.wait(batch).remove(0);
            assert!(result.verdict.is_pass(), "{:?}", result.verdict);
            if result.engines_spawned == 1 {
                assert_eq!(result.winner, Some(wlac_portfolio::Engine::Atpg));
                return;
            }
            spawned.push(result.engines_spawned);
        }
        panic!("the lead never ran alone: engines_spawned {spawned:?}");
    }
}
