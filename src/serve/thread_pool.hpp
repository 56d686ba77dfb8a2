// Fork-join for the serving plane and the real-thread hot path.
//
// ShardedStore runs each tenant's deterministic discrete-event timeline on
// one of run_replicated's threads (workers claim tenants from a shared
// counter); the hot-path tests and bench_hotpath use it to start their
// contending workers together. Simulated results never depend on the thread
// count or on scheduling order — tenants share no mutable state except
// internally synchronized components (the cold store, the tracer).
#pragma once

#include <functional>

namespace flstore::serve {

/// Barrier-started fork-join: spawn `threads` dedicated OS threads, hold
/// them at a start line until all have arrived, then run `fn(worker_index)`
/// on each and join. `threads` <= 1 runs `fn(0)` on the calling thread.
/// The barrier keeps a measured region genuinely concurrent — without it,
/// early threads finish their stream before late ones even start, and a
/// "16-thread" sweep measures mostly sequential execution.
void run_replicated(int threads, const std::function<void(int)>& fn);

}  // namespace flstore::serve
