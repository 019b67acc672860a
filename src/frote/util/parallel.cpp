#include "frote/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "frote/util/env.hpp"

namespace frote {

namespace {

std::atomic<int> g_default_threads{0};  // 0 ⇒ resolve from the environment

/// Upper bound on pool workers; far above any sane FROTE_NUM_THREADS and
/// low enough that a typo (e.g. "400") cannot exhaust the process.
constexpr int kMaxThreads = 256;

thread_local bool t_in_parallel = false;

/// One fan-out of chunk tasks. Workers and the submitting thread pull chunk
/// indices from `next` until exhausted; `done` counts completed chunks and
/// `finished` is the submitter's completion latch. Heap-allocated and
/// shared: a worker that joins a job keeps its own reference, so a late
/// worker touching the bookkeeping after the submitter has already returned
/// reads valid (exhausted) state, never a dead frame.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t total = 0;
  /// Pool workers allowed to join (the submitter always participates).
  int helper_limit = 0;
  int helpers = 0;  // workers that joined; guarded by Pool::mu_
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::condition_variable finished;  // waited on under Pool::mu_
  std::exception_ptr error;  // first exception, guarded by error_mu
  std::mutex error_mu;

  bool claimable() const {
    return helpers < helper_limit && next.load() < total;
  }
};

/// Lazily-started shared worker pool with per-job admission. Every
/// submission is admitted at once into a FIFO of jobs; a worker joins the
/// oldest job that still has unclaimed chunks and helper budget (checked
/// and claimed together under mu_), and a submitter only ever drains its
/// own job. So every job can finish with its submitter alone: a chunk body
/// may block on a lock that another submitter holds, because that
/// submitter never waits for a worker to become free. Nested parallel
/// regions never reach the pool — parallel_for/parallel_reduce run them
/// inline on the calling thread.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t chunks, int threads,
           const std::function<void(std::size_t)>& fn) {
    const int helpers = std::min<int>(
        threads - 1, static_cast<int>(std::min<std::size_t>(chunks, kMaxThreads)));
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->total = chunks;
    job->helper_limit = helpers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < helpers) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      jobs_.push_back(job);
    }
    cv_.notify_all();

    // The submitting thread drains its own job alongside any helpers, then
    // waits for the stragglers.
    work_on(*job);
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
    job->finished.wait(lock, [&] { return job->done.load() == job->total; });
    lock.unlock();
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Oldest admitted job a worker may join, or null. Caller holds mu_.
  std::shared_ptr<Job> claimable_job() const {
    for (const auto& job : jobs_) {
      if (job->claimable()) return job;
    }
    return nullptr;
  }

  void worker_loop() {
    t_in_parallel = true;  // nested regions on this thread run inline
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::shared_ptr<Job> job;  // own a reference past unlock
      cv_.wait(lock, [&] { return stop_ || (job = claimable_job()); });
      if (stop_) return;
      ++job->helpers;  // the budget check above and this claim share mu_
      lock.unlock();
      work_on(*job);
      job.reset();
      lock.lock();
    }
  }

  void work_on(Job& job) {
    const bool was_in_parallel = t_in_parallel;
    t_in_parallel = true;
    for (;;) {
      const std::size_t c = job.next.fetch_add(1);
      if (c >= job.total) break;
      try {
        (*job.fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1) + 1 == job.total) {
        // Take mu_ before notifying so the submitter cannot check the
        // predicate and go to sleep between our increment and the notify
        // (the classic lost-wakeup interleaving).
        { std::lock_guard<std::mutex> lock(mu_); }
        job.finished.notify_one();
      }
    }
    t_in_parallel = was_in_parallel;
  }

  std::mutex mu_;  // guards jobs_/stop_/workers_ and every Job::helpers
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  /// Admitted jobs in submission order; each leaves when its submitter has
  /// drained it. At most one entry per thread that is submitting.
  std::vector<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

}  // namespace

int resolve_threads(int requested) {
  int n = requested > 0 ? requested : default_threads();
  if (n < 1) n = 1;
  return std::min(n, kMaxThreads);
}

void set_default_threads(int n) { g_default_threads.store(n > 0 ? n : 0); }

int default_threads() {
  const int pinned = g_default_threads.load();
  if (pinned > 0) return std::min(pinned, kMaxThreads);
  const int from_env = env_int("FROTE_NUM_THREADS", 1);
  return std::clamp(from_env, 1, kMaxThreads);
}

bool in_parallel_region() { return t_in_parallel; }

namespace detail {

void pool_run(std::size_t chunks, int threads,
              const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(chunks, threads, fn);
}

}  // namespace detail

}  // namespace frote
