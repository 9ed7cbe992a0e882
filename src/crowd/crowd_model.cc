#include "crowd/crowd_model.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace crowder {
namespace crowd {

namespace {

// A fraction/rate must be a real number in [0, 1]. The negated comparison
// catches NaN (which compares false against everything) as out-of-range.
Status CheckUnitInterval(const char* field, double value) {
  if (!(value >= 0.0) || !(value <= 1.0)) {
    return Status::InvalidArgument(std::string(field) + " must be in [0, 1]; got " +
                                   std::to_string(value));
  }
  return Status::OK();
}

}  // namespace

Status ValidateCrowdModel(const CrowdModel& model) {
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("reliable_fraction", model.reliable_fraction));
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("noisy_fraction", model.noisy_fraction));
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("colluder_fraction", model.colluder_fraction));
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("sleeper_fraction", model.sleeper_fraction));
  const double sum = model.reliable_fraction + model.noisy_fraction + model.colluder_fraction +
                     model.sleeper_fraction;
  if (sum > 1.0 + 1e-12) {
    return Status::InvalidArgument(
        "worker-type fractions (reliable_fraction + noisy_fraction + colluder_fraction + "
        "sleeper_fraction) must sum to <= 1; got " +
        std::to_string(sum));
  }
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("spammer_yes_rate", model.spammer_yes_rate));
  CROWDER_RETURN_NOT_OK(CheckUnitInterval("colluder_yes_rate", model.colluder_yes_rate));
  if (model.colluder_fraction > 0.0 && model.colluder_rings == 0) {
    return Status::InvalidArgument("colluder_rings must be >= 1 when colluder_fraction > 0");
  }
  return Status::OK();
}

double ArrivalRatePerSecond(const CrowdModel& model, double visible_items,
                            bool cluster_interface) {
  const double familiarity =
      cluster_interface ? model.familiarity_cluster : model.familiarity_pair;
  double rate_per_min = model.base_arrival_per_minute * familiarity *
                        std::exp(-visible_items / model.effort_scale);
  if (model.qualification_test) rate_per_min *= model.qualification_arrival_factor;
  return std::max(rate_per_min, 1e-3) / 60.0;
}

}  // namespace crowd
}  // namespace crowder
