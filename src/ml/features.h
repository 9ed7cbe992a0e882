// Feature extraction for the learning-based ER baseline (§7.3): a record
// pair becomes a feature vector with, per chosen attribute, the normalized
// edit similarity and the TF-IDF cosine similarity of the attribute values —
// the two similarity functions of Köpcke et al. [18] that the paper adopts.
// Restaurant (4 attributes) gives an 8-dim vector; Product (Name only) 2-dim.
#ifndef CROWDER_ML_FEATURES_H_
#define CROWDER_ML_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/tfidf.h"

namespace crowder {
namespace ml {

/// \brief Precomputes per-record representations so that pair feature
/// extraction is O(record length), and exposes Features(a, b).
class PairFeaturizer {
 public:
  /// \param records records[i][attr] = raw attribute string of record i.
  /// \param attributes which attribute indices participate (e.g. {0} for
  ///        Product Name; {0,1,2,3} for Restaurant). Must be non-empty and
  ///        within every record's attribute count.
  static Result<PairFeaturizer> Create(const std::vector<std::vector<std::string>>& records,
                                       std::vector<size_t> attributes);

  /// Feature vector of the pair: [edit(a0), cosine(a0), edit(a1), ...].
  std::vector<double> Features(uint32_t a, uint32_t b) const;

  /// 2 * #attributes.
  size_t dim() const { return 2 * attributes_.size(); }
  size_t num_records() const { return normalized_.empty() ? 0 : normalized_[0].size(); }

 private:
  PairFeaturizer() = default;

  std::vector<size_t> attributes_;
  // Indexed [attribute_slot][record].
  std::vector<std::vector<std::string>> normalized_;
  std::vector<std::vector<text::SparseVector>> vectors_;
};

}  // namespace ml
}  // namespace crowder

#endif  // CROWDER_ML_FEATURES_H_
