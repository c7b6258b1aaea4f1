#include "spans.h"

#include <fstream>

#include "support/json_writer.h"

namespace perfbench {

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string line;
  for (const Span& span : spans_) {
    line = "{\"name\": ";
    pipemap::JsonWriter::AppendEscaped(line, span.name);
    line += ", \"start_ns\": " + std::to_string(span.start_ns);
    line += ", \"end_ns\": " + std::to_string(span.end_ns);
    line += ", \"parent\": " + std::to_string(span.parent);
    line += ", \"request\": " + std::to_string(span.request);
    line += ", \"tag\": ";
    pipemap::JsonWriter::AppendEscaped(line, span.tag);
    line += "}\n";
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
