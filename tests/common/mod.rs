//! Shared by the registry-wide integration tests: one hook that profiles
//! and traces a run, and the text every such run is compared by.

use mpisim::hooks::{Event, Hook};
use mpisim::profile::MpiP;
use scalatrace::merge::merge_tracers;
use scalatrace::trace::Trace;
use scalatrace::Tracer;

/// An mpiP profiler and a trace collector in one hook.
pub struct Observer {
    profile: MpiP,
    tracer: Tracer,
}

impl Observer {
    pub fn new(rank: usize, n: usize) -> Observer {
        Observer {
            profile: MpiP::new(),
            tracer: Tracer::new(rank, n),
        }
    }
}

impl Hook for Observer {
    fn on_event(&mut self, event: &Event) {
        self.profile.on_event(event);
        self.tracer.on_event(event);
    }
}

/// The merged trace and the merged mpiP profile of a run's hooks.
pub fn merged(hooks: Vec<Observer>) -> (Trace, MpiP) {
    let mut profile = MpiP::new();
    let mut tracers = Vec::with_capacity(hooks.len());
    for h in hooks {
        profile.merge(&h.profile);
        tracers.push(h.tracer);
    }
    (merge_tracers(tracers), profile)
}
