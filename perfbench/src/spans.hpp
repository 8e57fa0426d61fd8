// Host-time spans the benchmark records around each call into a layer.
//
// A Timer always measures its scope (that is how the untraced end-to-end
// run times each layer call); when a Recorder is attached it also records a
// span with its parent, so the traced run can split every phase into
// per-layer self time. Spans are kept in memory and written out when the
// run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t parent = -1;  ///< Index of the enclosing span; -1 at top.
  Clock::time_point start{};
  Clock::time_point end{};
};

/// Calls, total and self time of every span sharing one name.
struct LayerTime {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Recorder {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t open(const char* name);
  void close(std::size_t index);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Per-name totals; self time is a span's duration minus the part its
  /// direct children cover (children never overlap: one thread).
  [[nodiscard]] std::map<std::string, LayerTime> layers() const;
  /// One JSON object per span: name, id, parent, start/end in ns from the
  /// first span.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// Scoped timer; with a recorder it also spans the scope under `name`.
class Timer {
 public:
  Timer(const char* name, Recorder* rec) : rec_(rec), start_(Clock::now()) {
    if (rec_ != nullptr) index_ = rec_->open(name);
  }
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Ends the scope early; returns the elapsed seconds.
  double stop() {
    if (stopped_) return elapsed_;
    stopped_ = true;
    elapsed_ = seconds_since(start_);
    if (rec_ != nullptr) rec_->close(index_);
    return elapsed_;
  }

 private:
  Recorder* rec_;
  Clock::time_point start_;
  std::size_t index_ = 0;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

}  // namespace perfbench
