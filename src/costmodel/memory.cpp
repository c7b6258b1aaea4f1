#include "costmodel/memory.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.h"

namespace pipemap {

int MinProcessors(const MemorySpec& spec, double node_memory_bytes) {
  PIPEMAP_CHECK(node_memory_bytes > 0.0,
                "MinProcessors: node memory must be positive");
  PIPEMAP_CHECK(spec.fixed_bytes >= 0.0 && spec.distributed_bytes >= 0.0,
                "MinProcessors: memory requirements must be non-negative");
  const double headroom = node_memory_bytes - spec.fixed_bytes;
  if (headroom <= 0.0) {
    std::ostringstream os;
    os << "module fixed memory (" << spec.fixed_bytes
       << " B) exceeds node memory (" << node_memory_bytes << " B)";
    throw Infeasible(os.str());
  }
  if (spec.distributed_bytes == 0.0) return 1;
  const double p = std::ceil(spec.distributed_bytes / headroom - 1e-9);
  // A sliver of headroom asks for more processors than an int counts (and
  // the cast would be undefined): no machine has that many.
  if (!(p <= static_cast<double>(std::numeric_limits<int>::max()))) {
    std::ostringstream os;
    os << "module needs " << p << " processors (" << spec.distributed_bytes
       << " B distributed over " << headroom << " B of headroom)";
    throw Infeasible(os.str());
  }
  return std::max(1, static_cast<int>(p));
}

}  // namespace pipemap
