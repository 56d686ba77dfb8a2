#include "serve/thread_pool.hpp"

#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace flstore::serve {

void run_replicated(int threads, const std::function<void(int)>& fn) {
  if (threads <= 1) {
    fn(0);
    return;
  }
  // flstore-lint: allow(mutex-annotation) -- locals can't carry GUARDED_BY
  Mutex mu;
  CondVar cv;
  int arrived = 0;
  bool go = false;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      {
        const MutexLock lock(mu);
        ++arrived;
        if (arrived == threads) {
          go = true;
          cv.notify_all();
        } else {
          while (!go) cv.wait(mu);
        }
      }
      fn(i);
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace flstore::serve
