// Spans recorded by the traced run around the benchmark's calls into each
// layer.  One writer thread records; spans stay in memory and are written as
// JSON lines when the run ends.  All spans of one window share its trace id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reader.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t trace = 0;
    /// Index of the enclosing span; -1 for a window's root span.
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span under the innermost open one and returns its index.
  std::int32_t open(const char* name, std::uint32_t trace) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, trace, parent, now_ns(), 0});
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] double seconds(std::int32_t index) const {
    const Span& span = spans_[static_cast<std::size_t>(index)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes every span as one JSON object per line; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Runs `body` inside a span named `name` and adds its duration to `seconds`.
template <class Body>
void span(Tracer& tracer, const char* name, std::uint32_t trace, double& seconds,
          Body&& body) {
  const std::int32_t index = tracer.open(name, trace);
  body();
  tracer.close();
  seconds += tracer.seconds(index);
}

}  // namespace perfbench
