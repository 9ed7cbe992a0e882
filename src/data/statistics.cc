#include "data/statistics.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "similarity/set_similarity.h"
#include "text/vocabulary.h"

namespace crowder {
namespace data {

double DatasetStatistics::MatchSimilarityMedian() const {
  if (match_similarities.empty()) return 0.0;
  const size_t mid = match_similarities.size() / 2;
  return match_similarities.size() % 2 == 1
             ? match_similarities[mid]
             : 0.5 * (match_similarities[mid - 1] + match_similarities[mid]);
}

double DatasetStatistics::MatchRecallAt(double threshold) const {
  if (match_similarities.empty()) return 0.0;
  const auto it = std::lower_bound(match_similarities.begin(), match_similarities.end(),
                                   threshold);
  return static_cast<double>(match_similarities.end() - it) /
         static_cast<double>(match_similarities.size());
}

Result<DatasetStatistics> ComputeStatistics(const Dataset& dataset) {
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  DatasetStatistics stats;
  stats.num_records = dataset.table.num_records();
  stats.num_matching_pairs = dataset.CountMatchingPairs();
  stats.num_admissible_pairs = dataset.CountAdmissiblePairs();

  text::Vocabulary vocab;
  std::vector<similarity::TokenSet> sets;
  sets.reserve(dataset.table.num_records());
  uint64_t total_tokens = 0;
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    std::vector<text::TokenId> ids = vocab.InternDocument(dataset.table.ConcatenatedRecord(r));
    total_tokens += ids.size();
    sets.push_back(similarity::MakeTokenSet(std::move(ids)));
  }
  stats.avg_tokens_per_record =
      stats.num_records == 0 ? 0.0
                             : static_cast<double>(total_tokens) /
                                   static_cast<double>(stats.num_records);
  stats.distinct_tokens = vocab.size();

  // Similarity of each admissible matching pair.
  std::unordered_map<uint32_t, std::vector<uint32_t>> groups;
  for (uint32_t r = 0; r < dataset.truth.entity_of.size(); ++r) {
    groups[dataset.truth.entity_of[r]].push_back(r);
  }
  for (const auto& [entity, members] : groups) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (!dataset.Admissible(members[i], members[j])) continue;
        stats.match_similarities.push_back(
            similarity::Jaccard(sets[members[i]], sets[members[j]]));
      }
    }
  }
  std::sort(stats.match_similarities.begin(), stats.match_similarities.end());

  for (int d = 1; d <= 9; ++d) {
    if (stats.match_similarities.empty()) {
      stats.match_similarity_deciles.push_back(0.0);
    } else {
      const size_t idx = std::min(stats.match_similarities.size() - 1,
                                  stats.match_similarities.size() * d / 10);
      stats.match_similarity_deciles.push_back(stats.match_similarities[idx]);
    }
  }
  return stats;
}

std::string RenderStatistics(const DatasetStatistics& stats, const std::string& name) {
  std::string out;
  out += "dataset profile: " + name + "\n";
  out += "  records:            " + WithThousands(static_cast<long long>(stats.num_records)) +
         "\n";
  out += "  admissible pairs:   " +
         WithThousands(static_cast<long long>(stats.num_admissible_pairs)) + "\n";
  out += "  matching pairs:     " +
         WithThousands(static_cast<long long>(stats.num_matching_pairs)) + "\n";
  out += "  avg tokens/record:  " + FormatDouble(stats.avg_tokens_per_record, 1) + "\n";
  out += "  distinct tokens:    " + WithThousands(static_cast<long long>(stats.distinct_tokens)) +
         "\n";
  out += "  match Jaccard median: " + FormatDouble(stats.MatchSimilarityMedian(), 2) + "\n";
  out += "  match recall ceiling: ";
  for (double t : {0.5, 0.4, 0.3, 0.2, 0.1}) {
    out += FormatDouble(t, 1) + "->" + FormatDouble(100 * stats.MatchRecallAt(t), 1) + "%  ";
  }
  out += "\n";
  return out;
}

}  // namespace data
}  // namespace crowder
