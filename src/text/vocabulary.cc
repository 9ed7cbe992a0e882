#include "text/vocabulary.h"

#include "common/logging.h"
#include "text/tokenizer.h"

namespace crowder {
namespace text {

std::vector<TokenId> Vocabulary::InternDocument(std::string_view text) {
  const uint32_t document = ++num_documents_;
  ids_.clear();
  ForEachToken(text, [&](const std::string& token) {
    const auto [it, inserted] =
        entries_.try_emplace(token, Entry{static_cast<TokenId>(doc_freq_.size()), 0});
    if (inserted) doc_freq_.push_back(0);
    Entry& entry = it->second;
    if (entry.last_document != document) {
      entry.last_document = document;
      ++doc_freq_[entry.id];
    }
    ids_.push_back(entry.id);
  });
  return ids_;  // a copy sized to the document
}

uint32_t Vocabulary::DocumentFrequency(TokenId id) const {
  CROWDER_CHECK_LT(static_cast<size_t>(id), doc_freq_.size());
  return doc_freq_[id];
}

}  // namespace text
}  // namespace crowder
