#include "serve/controller.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "obs/metrics.hpp"
#include "solver/operators.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/csr.hpp"
#include "util/parallel.hpp"
#include "verify/repro_io.hpp"

namespace cmesolve::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::future<SolveResponse> ready_response(SolveResponse r) {
  std::promise<SolveResponse> p;
  p.set_value(std::move(r));
  return p.get_future();
}

/// The environment value `name` as a T, when the whole string is one
/// decimal integer that fits; nullopt when unset or anything else.
template <typename T>
std::optional<T> env_integer(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  const char* end = v + std::strlen(v);
  T n{};
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return n;
}

}  // namespace

ServeOptions serve_options_from_env() {
  ServeOptions opt;
  if (const auto n = env_integer<int>("CMESOLVE_SERVE_WORKERS"); n && *n > 0) {
    opt.workers = *n;
  }
  if (const auto n = env_integer<std::size_t>("CMESOLVE_SERVE_QUEUE_CAP")) {
    opt.queue_capacity = *n;
  }
  if (const auto n = env_integer<std::size_t>("CMESOLVE_SERVE_CACHE_CAP")) {
    opt.cache_capacity = *n;
  }
  return opt;
}

Controller::Controller(ServeOptions opt)
    : opt_(opt), cache_(opt.cache_capacity), paused_(opt.start_paused) {
  opt_.workers = std::clamp(opt_.workers, 1, util::kMaxThreadCap);
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Controller::~Controller() { shutdown(); }

std::future<SolveResponse> Controller::submit(std::string_view repro_json,
                                              Priority pri) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  verify::Scenario sc;
  try {
    sc = verify::parse_repro(repro_json);
  } catch (const std::exception& e) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    SolveResponse r;
    r.status = Status::kInvalid;
    r.error = e.what();
    return ready_response(std::move(r));
  }
  // Re-serialize for the cache key rather than reusing the input bytes:
  // equivalent documents that differ in whitespace must key identically.
  std::string key = cache_key(sc);
  return admit(std::move(sc), std::move(key), pri);
}

std::future<SolveResponse> Controller::submit(verify::Scenario sc,
                                              Priority pri) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::string key = cache_key(sc);
  return admit(std::move(sc), std::move(key), pri);
}

std::future<SolveResponse> Controller::admit(verify::Scenario sc,
                                             std::string key, Priority pri) {
  const auto shed = [this](const char* why) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    SolveResponse r;
    r.status = Status::kShed;
    r.error = why;
    return ready_response(std::move(r));
  };

  std::unique_lock<std::mutex> lk(m_);
  if (!accepting_) return shed("daemon is shutting down");
  if (queued_ >= opt_.queue_capacity) {
    // Full. An incoming request may evict the *youngest lowest-priority*
    // queued request, but only if it strictly outranks it — equal-priority
    // traffic is served in arrival order, never reshuffled.
    int victim = -1;
    for (int lvl = 0; lvl < static_cast<int>(pri); ++lvl) {
      if (!queue_[lvl].empty()) {
        victim = lvl;
        break;
      }
    }
    if (victim < 0) {
      lk.unlock();
      return shed("queue full");
    }
    Request evicted = std::move(queue_[victim].back());
    queue_[victim].pop_back();
    --queued_;
    shed_.fetch_add(1, std::memory_order_relaxed);
    queue_evicted_.fetch_add(1, std::memory_order_relaxed);
    SolveResponse r;
    r.status = Status::kShed;
    r.error = "evicted by a higher-priority request";
    evicted.promise.set_value(std::move(r));
  }
  Request rq;
  rq.sc = std::move(sc);
  rq.key = std::move(key);
  rq.pri = pri;
  rq.enqueued = std::chrono::steady_clock::now();
  std::future<SolveResponse> fut = rq.promise.get_future();
  queue_[static_cast<int>(pri)].push_back(std::move(rq));
  ++queued_;
  lk.unlock();
  cv_.notify_one();
  return fut;
}

void Controller::resume() {
  {
    std::lock_guard<std::mutex> lk(m_);
    paused_ = false;
  }
  cv_.notify_all();
}

void Controller::shutdown() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_) return;
    accepting_ = false;
    stopping_ = true;
    paused_ = false;  // a paused daemon still drains what it accepted
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::size_t Controller::queue_depth() const {
  std::lock_guard<std::mutex> lk(m_);
  return queued_;
}

void Controller::worker_loop() {
  for (;;) {
    Request rq;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_.wait(lk, [&] { return (!paused_ && queued_ > 0) || stopping_; });
      if (queued_ == 0) {
        if (stopping_) return;
        continue;
      }
      if (paused_ && !stopping_) continue;
      for (int lvl = 2; lvl >= 0; --lvl) {
        if (!queue_[lvl].empty()) {
          rq = std::move(queue_[lvl].front());
          queue_[lvl].pop_front();
          --queued_;
          break;
        }
      }
    }
    process(rq);
  }
}

void Controller::process(Request& rq) {
  // Inline region: the whole numerical pipeline below takes its serial
  // path, so N workers run N independent solves concurrently without
  // touching the shared pool — and produce bit-identical vectors to a
  // single-threaded daemon. Per-solve metrics are suppressed; the daemon
  // reports aggregates (workload.cpp).
  util::InlineRegion inline_region;
  obs::SuppressMetrics suppress;

  SolveResponse r;
  r.queue_seconds = seconds_since(rq.enqueued);
  const auto started = std::chrono::steady_clock::now();

  if (auto cached = cache_.find_exact(rq.key)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    r.status = Status::kOk;
    r.cache_hit = true;
    r.reason = solver::StopReason::kConverged;
    r.residual = cached->residual;
    r.p = cached->p;
    r.states = r.p.size();
    r.solve_seconds = seconds_since(started);
    rq.promise.set_value(std::move(r));
    return;
  }

  try {
    const core::ReactionNetwork net = verify::build_network(rq.sc);
    const core::StateSpace space(net, rq.sc.initial, rq.sc.max_states);
    if (space.truncated()) {
      throw std::runtime_error("state space truncated at max_states=" +
                               std::to_string(rq.sc.max_states));
    }
    if (space.size() < 2) {
      throw std::runtime_error("degenerate state space (fewer than 2 states)");
    }
    const sparse::Csr a = core::rate_matrix(space);
    const solver::CsrOperator op(a);
    const auto n = static_cast<std::size_t>(a.nrows);
    std::vector<real_t> x(n);
    solver::fill_uniform(x);

    solver::JacobiOptions jopt;
    jopt.eps = rq.sc.jacobi_eps;
    jopt.stagnation_eps = rq.sc.jacobi_stagnation_eps;
    jopt.max_iterations = rq.sc.jacobi_max_iterations;
    jopt.damping = rq.sc.jacobi_damping;
    const solver::JacobiResult jr = jacobi_solve(op, a.inf_norm(), x, jopt);

    r.status = Status::kOk;
    r.states = n;
    r.reason = jr.reason;
    r.iterations = jr.iterations;
    r.residual = jr.residual;
    cold_solves_.fetch_add(1, std::memory_order_relaxed);
    cold_iterations_.fetch_add(jr.iterations, std::memory_order_relaxed);
    if (jr.reason == solver::StopReason::kConverged) {
      cache_.insert(rq.key, x, jr.residual);
    }
    r.p = std::move(x);
    completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    r.status = Status::kFailed;
    r.error = e.what();
  }
  r.solve_seconds = seconds_since(started);
  rq.promise.set_value(std::move(r));
}

ServeStats Controller::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.queue_evicted = queue_evicted_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cold_solves = cold_solves_.load(std::memory_order_relaxed);
  s.cold_iterations = cold_iterations_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace cmesolve::serve
