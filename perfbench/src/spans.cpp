#include "spans.hpp"

#include <fstream>

namespace perfbench {

std::size_t Recorder::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start = Clock::now();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Recorder::close(std::size_t index) {
  spans_[index].end = Clock::now();
  open_.pop_back();  // timers nest, so `index` is the innermost open span
}

std::map<std::string, LayerTime> Recorder::layers() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        std::chrono::duration<double>(spans_[i].end - spans_[i].start)
            .count();
    LayerTime& lt = out[spans_[i].name];
    ++lt.calls;
    lt.total_s += dur;
    lt.self_s += dur - child_s[i];
  }
  return out;
}

bool Recorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto ns = [t0](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "{\"name\":\"" << s.name << "\",\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << ns(s.start)
       << ",\"end_ns\":" << ns(s.end) << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
