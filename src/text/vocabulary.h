// Token interning: maps the tokens of each record (text/tokenizer.h) to dense
// uint32 ids so that similarity joins and graph code work on integers. Also
// tracks document frequencies, which both the prefix-filtering join
// (rare-token-first ordering) and TF-IDF need.
//
// Ids are assigned in first-appearance order over the documents in the order
// they are interned, and a token's document frequency counts each document
// it appears in once, however often it repeats there (a per-token stamp of
// the last document that counted it).
#ifndef CROWDER_TEXT_VOCABULARY_H_
#define CROWDER_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace crowder {
namespace text {

/// \brief A dense token id, assigned by Vocabulary in first-appearance order.
using TokenId = uint32_t;

/// \brief Token dictionary with document counts; each token string is held
/// once, as its key.
class Vocabulary {
 public:
  /// \brief Tokenizes `text` (text::ForEachToken), interns every token, and
  /// returns their ids in text order, repeats included. Counts one more
  /// document, and one more document for each distinct token in it (call
  /// once per record).
  std::vector<TokenId> InternDocument(std::string_view text);

  /// \brief Number of documents a token appeared in (for IDF and rarity
  /// ordering); `id` must be below size().
  uint32_t DocumentFrequency(TokenId id) const;

  /// \brief Number of documents processed through InternDocument.
  uint32_t num_documents() const { return num_documents_; }

  /// \brief Number of distinct tokens interned.
  size_t size() const { return doc_freq_.size(); }

 private:
  struct Entry {
    TokenId id;
    uint32_t last_document;  ///< 1-based number of the last document counted
  };

  std::unordered_map<std::string, Entry> entries_;
  std::vector<uint32_t> doc_freq_;
  std::vector<TokenId> ids_;  ///< InternDocument's reused buffer
  uint32_t num_documents_ = 0;
};

}  // namespace text
}  // namespace crowder

#endif  // CROWDER_TEXT_VOCABULARY_H_
