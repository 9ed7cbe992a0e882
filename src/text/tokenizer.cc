#include "text/tokenizer.h"

namespace crowder {
namespace text {

std::string Normalize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  ForEachToken(text, [&out](const std::string& token) {
    if (!out.empty()) out.push_back(' ');
    out += token;
  });
  return out;
}

}  // namespace text
}  // namespace crowder
