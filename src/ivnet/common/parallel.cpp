#include "ivnet/common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace ivnet {
namespace {

thread_local bool t_in_pool_worker = false;

/// One pool_run invocation. Workers hold a shared_ptr so a straggler
/// waking up late can only touch its own (already exhausted) job, never a
/// newer one.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
};

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads) : thread_count_(threads) {
    // The submitting thread participates, so spawn threads - 1 workers.
    for (std::size_t i = 1; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t thread_count() const { return thread_count_; }

  void run(std::size_t n, const std::function<void(std::size_t)>& body) {
    // One job at a time; concurrent submissions queue up here.
    std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->n = n;
    {
      std::lock_guard<std::mutex> lock(m_);
      current_job_ = job;
      ++generation_;
    }
    wake_cv_.notify_all();
    // The submitting thread participates; mark it as a pool thread for the
    // duration so nested parallel_for calls from its indices run inline
    // instead of re-entering run() (submit_mutex_ is not recursive).
    const bool was_worker = t_in_pool_worker;
    t_in_pool_worker = true;
    work(*job);
    t_in_pool_worker = was_worker;
    {
      std::unique_lock<std::mutex> lock(m_);
      done_cv_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) == job->n;
      });
      current_job_.reset();
    }
  }

 private:
  void work(Job& job) {
    // Claims one index at a time; reports its finished indices once, when
    // the job runs dry, so a claim costs one shared atomic, not two.
    std::size_t finished = 0;
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) break;
      (*job.body)(i);
      ++finished;
    }
    if (finished != 0 &&
        job.done.fetch_add(finished, std::memory_order_acq_rel) + finished ==
            job.n) {
      std::lock_guard<std::mutex> lock(m_);
      done_cv_.notify_all();
    }
  }

  void worker_loop() {
    t_in_pool_worker = true;
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(m_);
        wake_cv_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        job = current_job_;
      }
      if (job) work(*job);
    }
  }

  const std::size_t thread_count_;
  std::mutex submit_mutex_;
  std::mutex m_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> current_job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;          // guarded by g_pool_mutex
std::size_t g_thread_override = 0;           // guarded by g_pool_mutex

std::size_t automatic_thread_count() {
  const std::size_t env = parse_thread_count(std::getenv("IVNET_THREADS"));
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    const std::size_t n =
        g_thread_override > 0 ? g_thread_override : automatic_thread_count();
    g_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_pool;
}

}  // namespace

std::size_t parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  if (value == 0 || value > 1024) return 0;
  return static_cast<std::size_t>(value);
}

std::size_t parallel_thread_count() { return pool().thread_count(); }

void set_parallel_threads(std::size_t count) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();  // joins idle workers; rebuilt lazily on next use
  g_thread_override = count;
}

namespace detail {

bool in_pool_worker() { return t_in_pool_worker; }

bool set_in_pool_worker(bool value) {
  const bool prev = t_in_pool_worker;
  t_in_pool_worker = value;
  return prev;
}

void pool_run(std::size_t n, const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  pool().run(n, f);
}

void for_each_index_guarded(std::size_t n,
                            const std::function<void(std::size_t)>& f) {
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  for_each_index(n, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error) return;
    }
    try {
      f(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail
}  // namespace ivnet
