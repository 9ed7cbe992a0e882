// The machine pass's one preprocessing rule, CrowdER §7.1: "datasets were
// preprocessed by replacing non-alphanumeric characters with white spaces,
// and letters with their lowercases." A record's tokens are the words that
// remain: the maximal runs of ASCII letters and digits, lowercased.
//
// ForEachToken applies the rule in one walk over the bytes. A 256-entry table
// maps each byte to its lowercase form when C-locale isalnum accepts it (the
// bytes 0-9, A-Z and a-z, with tolower applied) and to 0 otherwise, so every
// other byte separates tokens: punctuation, whitespace, control bytes, NUL and
// each byte >= 0x80 (the program never calls setlocale, so UTF-8 letters are
// separators too). Two entry points sit on the walk: Vocabulary::
// InternDocument (text/vocabulary.h) interns the tokens, and Normalize joins
// them with single spaces.
//
// Why this equals the earlier two-pass normalizer followed by a whitespace
// split: that normalizer turned every non-isalnum byte into a space,
// lowercased the rest with tolower, and collapsed space runs and trimmed the
// ends. Only alphanumeric bytes and single inner spaces survived it, so its
// words were exactly the maximal alphanumeric runs, lowercased, in order:
// the tokens this walk emits. text_test pins the equivalence on random
// documents over all 256 byte values.
#ifndef CROWDER_TEXT_TOKENIZER_H_
#define CROWDER_TEXT_TOKENIZER_H_

#include <array>
#include <string>
#include <string_view>

namespace crowder {
namespace text {

namespace internal {

/// \brief Builds the §7.1 byte table: each C-locale alphanumeric byte maps to
/// its lowercase form, every other byte to 0 (a separator).
constexpr std::array<char, 256> MakeTokenByteTable() {
  std::array<char, 256> table{};
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'a'; c <= 'z'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'A'; c <= 'Z'; ++c) {
    table[static_cast<unsigned char>(c)] = static_cast<char>(c - 'A' + 'a');
  }
  return table;
}

/// \brief The lowercase form of each token byte, or 0 for a separator byte.
inline constexpr std::array<char, 256> kTokenByte = MakeTokenByteTable();

}  // namespace internal

/// \brief Calls `emit(const std::string& token)` for each token of `text`, in
/// order and with repeats: each maximal run of ASCII letters and digits,
/// lowercased. The string is valid only during the call.
template <typename Emit>
void ForEachToken(std::string_view text, Emit&& emit) {
  std::string token;
  for (const char raw : text) {
    const char c = internal::kTokenByte[static_cast<unsigned char>(raw)];
    if (c != 0) {
      token.push_back(c);
    } else if (!token.empty()) {
      emit(static_cast<const std::string&>(token));
      token.clear();
    }
  }
  if (!token.empty()) emit(static_cast<const std::string&>(token));
}

/// \brief The tokens of `text` joined by single spaces: "55 E. 54th St." ->
/// "55 e 54th st". The sorted-neighbourhood keys and the SVM's
/// edit-similarity feature compare these strings.
std::string Normalize(std::string_view text);

}  // namespace text
}  // namespace crowder

#endif  // CROWDER_TEXT_TOKENIZER_H_
