#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(CMESOLVE_THREADS_ENABLED)
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#endif

namespace cmesolve::util {

namespace {

std::atomic<int> g_override{0};

#if defined(CMESOLVE_THREADS_ENABLED)
thread_local bool t_in_task = false;

int env_threads() {
  static const int cached = [] {
    if (const char* env = std::getenv("CMESOLVE_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) return std::min(v, kMaxThreadCap);
    }
    return 0;
  }();
  return cached;
}

/// Persistent worker pool. Workers sleep between generations; each
/// parallel_tasks() call publishes a generation, the participants drain a
/// shared atomic task counter, and the caller blocks until every engaged
/// worker reports done. Nested calls (from inside a task) run inline.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(int ntasks, int nthreads, const std::function<void(int)>& task) {
    const int engaged = std::min(nthreads, ntasks) - 1;  // workers beside us
    ensure_workers(engaged);
    {
      std::lock_guard<std::mutex> lk(m_);
      task_ = &task;
      ntasks_ = ntasks;
      next_.store(0, std::memory_order_relaxed);
      participants_ = engaged;
      finished_ = 0;
      error_ = nullptr;
      ++generation_;
    }
    work_cv_.notify_all();

    t_in_task = true;
    drain(task, ntasks);
    t_in_task = false;

    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [&] { return finished_ == participants_; });
      task_ = nullptr;
      participants_ = 0;
      err = error_;
      error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void drain(const std::function<void(int)>& task, int ntasks) {
    for (;;) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= ntasks) break;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  /// Grow the pool so at least `n` workers exist. Only called between
  /// generations (from run(), which is externally serialized), so workers_
  /// is stable whenever a generation is in flight.
  void ensure_workers(int n) {
    std::uint64_t gen;
    {
      std::lock_guard<std::mutex> lk(m_);
      gen = generation_;
    }
    while (static_cast<int>(workers_.size()) < n) {
      const int id = static_cast<int>(workers_.size());
      workers_.emplace_back([this, id, gen] { worker_loop(id, gen); });
    }
  }

  void worker_loop(int id, std::uint64_t seen_gen) {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen_gen; });
      if (stop_) return;
      seen_gen = generation_;
      if (id >= participants_ || task_ == nullptr) continue;
      const std::function<void(int)>* task = task_;
      const int ntasks = ntasks_;
      lk.unlock();
      t_in_task = true;
      drain(*task, ntasks);
      t_in_task = false;
      lk.lock();
      if (++finished_ == participants_) done_cv_.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  int participants_ = 0;
  int finished_ = 0;
  int ntasks_ = 0;
  const std::function<void(int)>* task_ = nullptr;
  std::exception_ptr error_;
  std::atomic<int> next_{0};
};
#endif  // CMESOLVE_THREADS_ENABLED

}  // namespace

int hardware_threads() noexcept {
#if defined(CMESOLVE_THREADS_ENABLED)
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
#else
  return 1;
#endif
}

int max_threads() noexcept {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o > 0) return o;
#if defined(CMESOLVE_THREADS_ENABLED)
  if (const int e = env_threads(); e > 0) return e;
#endif
  return hardware_threads();
}

void set_max_threads(int n) noexcept {
  g_override.store(std::clamp(n, 0, kMaxThreadCap), std::memory_order_relaxed);
}

bool in_parallel_region() noexcept {
#if defined(CMESOLVE_THREADS_ENABLED)
  return t_in_task;
#else
  return false;
#endif
}

InlineRegion::InlineRegion() noexcept {
#if defined(CMESOLVE_THREADS_ENABLED)
  prev_ = t_in_task;
  t_in_task = true;
#else
  prev_ = false;
#endif
}

InlineRegion::~InlineRegion() {
#if defined(CMESOLVE_THREADS_ENABLED)
  t_in_task = prev_;
#endif
}

void parallel_tasks(int ntasks, const std::function<void(int)>& task) {
  if (ntasks <= 0) return;
#if defined(CMESOLVE_THREADS_ENABLED)
  const int t = max_threads();
  if (ntasks == 1 || t <= 1 || t_in_task) {
    const bool prev = t_in_task;
    t_in_task = true;
    try {
      for (int i = 0; i < ntasks; ++i) task(i);
    } catch (...) {
      t_in_task = prev;
      throw;
    }
    t_in_task = prev;
    return;
  }
  Pool::instance().run(ntasks, t, task);
#else
  for (int i = 0; i < ntasks; ++i) task(i);
#endif
}

}  // namespace cmesolve::util
