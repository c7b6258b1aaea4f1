#include "engine/fingerprint.h"

namespace pipemap {

std::string FingerprintHex(std::uint64_t fingerprint) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return out;
}

}  // namespace pipemap
