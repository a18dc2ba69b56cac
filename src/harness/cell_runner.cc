#include "src/harness/cell_runner.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/artifact.h"

namespace treebench {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

struct CellRunner::Cell {
  std::string label;
  CellBody body;
  // Written by exactly one worker, then published via `done` under the
  // shared mutex; read by the main thread only after observing done.
  std::string log;
  std::exception_ptr error;
  double wall_seconds = 0.0;
  bool done = false;
};

struct CellRunner::Shared {
  std::mutex mu;
  std::condition_variable cv_done;
  // The next cell to hand out: workers take cells in submission order, the
  // order the main thread flushes them in, so jobs=1 is the sequential run.
  size_t next = 0;
};

CellRunner::CellRunner(uint32_t jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

CellRunner::~CellRunner() = default;

size_t CellRunner::size() const { return cells_.size(); }

size_t CellRunner::Submit(std::string label, CellBody body) {
  if (ran_) {
    throw std::logic_error("CellRunner::Submit after Run");
  }
  Cell cell;
  cell.label = std::move(label);
  cell.body = std::move(body);
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void CellRunner::RunOneCell(Cell& cell) {
  char* buf = nullptr;
  size_t buf_len = 0;
  FILE* capture = open_memstream(&buf, &buf_len);
  if (capture == nullptr) {
    cell.error = std::make_exception_ptr(
        std::runtime_error("open_memstream failed for cell " + cell.label));
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    cell.body(capture);
  } catch (...) {
    cell.error = std::current_exception();
  }
  cell.wall_seconds = SecondsSince(t0);
  std::fclose(capture);
  if (buf != nullptr) {
    cell.log.assign(buf, buf_len);
    std::free(buf);
  }
}

void CellRunner::WorkerLoop() {
  Shared& sh = *shared_;
  for (;;) {
    size_t idx = 0;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (sh.next == cells_.size()) {
        return;  // every cell handed out; pool is shutting down
      }
      idx = sh.next++;
    }
    RunOneCell(cells_[idx]);
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      cells_[idx].done = true;
    }
    sh.cv_done.notify_all();
  }
}

void CellRunner::Run(FILE* sink) {
  if (ran_) {
    throw std::logic_error("CellRunner::Run called twice");
  }
  ran_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  if (!cells_.empty()) {
    Shared sh;
    shared_ = &sh;
    const uint32_t workers = static_cast<uint32_t>(
        cells_.size() < jobs_ ? cells_.size() : jobs_);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      pool.emplace_back(&CellRunner::WorkerLoop, this);
    }
    // Stream each cell's captured output in submission order as soon as the
    // completed prefix extends — this is the canonical merge: the bytes that
    // reach `sink` are exactly the sequential run's bytes.
    size_t flushed = 0;
    {
      std::unique_lock<std::mutex> lock(sh.mu);
      while (flushed < cells_.size()) {
        sh.cv_done.wait(lock, [&] { return cells_[flushed].done; });
        while (flushed < cells_.size() && cells_[flushed].done) {
          const Cell& cell = cells_[flushed];
          lock.unlock();
          if (sink != nullptr && !cell.log.empty()) {
            WriteAll(sink, cell.log);
            std::fflush(sink);
          }
          lock.lock();
          ++flushed;
        }
      }
    }
    for (std::thread& t : pool) {
      t.join();
    }
    shared_ = nullptr;
  }
  run_wall_seconds_ = SecondsSince(t0);

  results_.clear();
  results_.reserve(cells_.size());
  std::exception_ptr first_error;
  for (const Cell& cell : cells_) {
    CellResult r;
    r.label = cell.label;
    r.wall_seconds = cell.wall_seconds;
    results_.push_back(std::move(r));
    if (first_error == nullptr && cell.error != nullptr) {
      first_error = cell.error;
    }
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

double CellRunner::occupancy() const {
  if (run_wall_seconds_ <= 0.0 || results_.empty()) {
    return 0.0;
  }
  double busy = 0.0;
  for (const CellResult& r : results_) {
    busy += r.wall_seconds;
  }
  const double capacity = run_wall_seconds_ * static_cast<double>(jobs_);
  return capacity > 0.0 ? busy / capacity : 0.0;
}

uint32_t CellRunner::ResolveJobs(uint32_t requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("TREEBENCH_JOBS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v < 1024) {
      return static_cast<uint32_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace treebench
