#include "trace.hpp"

#include <fstream>

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"trace\":" << span.trace
        << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
