//! A cache hit submitted by design reference never touches the netlist: the
//! allocations one hit costs, from `submit` to the result in hand, are the
//! same for p14's 44-net design and p3's 4,608-net design of the paper
//! suite.
//!
//! Same idiom as `crates/core/tests/alloc_free.rs`: a counting global
//! allocator, and the minimum delta over several attempts. This file holds
//! a single `#[test]` so no concurrent test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wlac_atpg::Verification;
use wlac_circuits::{paper_suite, Scale};
use wlac_portfolio::Verdict;
use wlac_service::{
    config_fingerprint, design_hash, property_hash, Job, KnowledgeBase, ServiceConfig,
    VerdictRecord, VerificationService,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Restores the design with a cached verdict for the property, so the next
/// submission is a hit without racing any engine. Returns the job.
fn cached_job(service: &VerificationService, config: &ServiceConfig, v: &Verification) -> Job {
    let design = design_hash(&v.netlist);
    let record = VerdictRecord {
        property: property_hash(&v.property, &v.environment),
        config: config_fingerprint(&config.portfolio),
        verdict: Verdict::Holds {
            proved: true,
            frames: 1,
        },
        winner: None,
    };
    assert_eq!(
        service.restore(v.netlist.clone(), &KnowledgeBase::new(design), &[record]),
        Ok((design, 1))
    );
    Job {
        design,
        property: v.property.clone(),
        environment: v.environment.clone(),
    }
}

/// The fewest allocations one cache-hit job took, submit to result.
fn allocs_per_hit(service: &VerificationService, job: &Job) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..20 {
        let jobs = vec![job.clone()];
        let before = allocs();
        let results = service.wait(service.submit(jobs));
        let delta = allocs() - before;
        assert!(results[0].from_cache, "{:?}", results[0]);
        best = best.min(delta);
    }
    best
}

#[test]
fn cache_hit_allocations_do_not_grow_with_the_design() {
    let suite = paper_suite(Scale::Paper);
    let case = |name: &str| {
        suite
            .iter()
            .find(|c| c.property == name)
            .map(|c| &c.verification)
            .expect("paper case")
    };
    let (small, large) = (case("p14"), case("p3"));
    assert_eq!(small.netlist.net_count(), 44);
    assert_eq!(large.netlist.net_count(), 4608);

    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(config.clone());
    let small_job = cached_job(&service, &config, small);
    let large_job = cached_job(&service, &config, large);
    // Warm-up: the batch table, the cache's bookkeeping and the worker's
    // first-use allocations settle before anything is counted.
    allocs_per_hit(&service, &small_job);
    allocs_per_hit(&service, &large_job);

    let small_allocs = allocs_per_hit(&service, &small_job);
    let large_allocs = allocs_per_hit(&service, &large_job);
    assert_eq!(
        small_allocs, large_allocs,
        "a cache hit on the 4,608-net design allocated {large_allocs} times, \
         on the 44-net design {small_allocs} times"
    );
}
