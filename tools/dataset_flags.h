// The one reader of the flags that pick a synthetic dataset, shared by
// crowder_cli generate and crowder_bench_serve: the kind
// (restaurant|product|productdup), --seed (0 keeps the generator's default
// seed) and --scale (multiplies the record counts; productdup scales its
// Product base too).
#ifndef CROWDER_TOOLS_DATASET_FLAGS_H_
#define CROWDER_TOOLS_DATASET_FLAGS_H_

#include <cstdint>
#include <string>

#include "data/generators.h"
#include "flags.h"

namespace crowder {
namespace tools {

/// Generates the dataset `kind` under --seed and --scale. An unknown kind,
/// or a malformed number naming its flag, is an InvalidArgument.
inline Result<data::Dataset> GenerateDatasetFromFlags(const std::string& kind,
                                                      const Args& flags) {
  CROWDER_ASSIGN_OR_RETURN(const uint64_t seed, flags.GetNumber<uint64_t>("seed", 0));
  CROWDER_ASSIGN_OR_RETURN(const double scale, flags.GetNumber("scale", 1.0));
  if (kind == "restaurant") {
    data::RestaurantConfig config;
    if (seed) config.seed = seed;
    config.scale_factor = scale;
    return data::GenerateRestaurant(config);
  }
  if (kind == "product") {
    data::ProductConfig config;
    if (seed) config.seed = seed;
    config.scale_factor = scale;
    return data::GenerateProduct(config);
  }
  if (kind == "productdup") {
    data::ProductDupConfig config;
    if (seed) config.seed = seed;
    config.scale_factor = scale;
    config.product.scale_factor = scale;
    return data::GenerateProductDup(config);
  }
  return Status::InvalidArgument("unknown dataset kind '" + kind + "'");
}

}  // namespace tools
}  // namespace crowder

#endif  // CROWDER_TOOLS_DATASET_FLAGS_H_
