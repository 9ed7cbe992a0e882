#include "ml/features.h"

#include "common/logging.h"
#include "similarity/edit_distance.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace crowder {
namespace ml {

Result<PairFeaturizer> PairFeaturizer::Create(
    const std::vector<std::vector<std::string>>& records, std::vector<size_t> attributes) {
  if (attributes.empty()) {
    return Status::InvalidArgument("at least one attribute required");
  }
  for (size_t r = 0; r < records.size(); ++r) {
    for (size_t attr : attributes) {
      if (attr >= records[r].size()) {
        return Status::OutOfRange("record " + std::to_string(r) + " has no attribute " +
                                  std::to_string(attr));
      }
    }
  }

  PairFeaturizer f;
  f.attributes_ = std::move(attributes);
  f.normalized_.resize(f.attributes_.size());
  f.vectors_.resize(f.attributes_.size());

  for (size_t slot = 0; slot < f.attributes_.size(); ++slot) {
    const size_t attr = f.attributes_[slot];
    // One vocabulary per attribute: IDF weights are attribute-specific
    // ("new" is common in product names but rare in cities).
    text::Vocabulary vocab;
    std::vector<std::vector<text::TokenId>> docs;
    docs.reserve(records.size());
    f.normalized_[slot].reserve(records.size());
    for (const auto& rec : records) {
      f.normalized_[slot].push_back(text::Normalize(rec[attr]));
      docs.push_back(vocab.InternDocument(rec[attr]));
    }
    text::TfIdfVectorizer vectorizer(&vocab);
    f.vectors_[slot].reserve(records.size());
    for (const auto& doc : docs) {
      f.vectors_[slot].push_back(vectorizer.Vectorize(doc));
    }
  }
  return f;
}

std::vector<double> PairFeaturizer::Features(uint32_t a, uint32_t b) const {
  std::vector<double> out;
  out.reserve(dim());
  for (size_t slot = 0; slot < attributes_.size(); ++slot) {
    CROWDER_CHECK_LT(static_cast<size_t>(a), normalized_[slot].size());
    CROWDER_CHECK_LT(static_cast<size_t>(b), normalized_[slot].size());
    out.push_back(similarity::EditSimilarity(normalized_[slot][a], normalized_[slot][b]));
    out.push_back(text::TfIdfVectorizer::Cosine(vectors_[slot][a], vectors_[slot][b]));
  }
  return out;
}

}  // namespace ml
}  // namespace crowder
