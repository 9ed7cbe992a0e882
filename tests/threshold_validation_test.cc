// Every threshold range check rejects NaN. A check written as
// `t < lo || t > hi` lets NaN through (both comparisons are false), and a NaN
// join threshold then reaches MinCompatibleSize's double-to-size_t
// conversion, which is undefined behaviour. Each entry point below must
// answer a NaN threshold with InvalidArgument.
#include <gtest/gtest.h>

#include <limits>

#include "core/resolution.h"
#include "core/workflow.h"
#include "serve/incremental_index.h"
#include "serve/service.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ThresholdValidation, JoinRejectsNaN) {
  similarity::JoinInput input;
  input.sets = {{1, 2}, {1, 2}};
  similarity::JoinOptions options;
  options.threshold = kNaN;
  EXPECT_TRUE(similarity::ValidateJoin(input, options).IsInvalidArgument());
  EXPECT_TRUE(similarity::AllPairsJoin(input, options).status().IsInvalidArgument());
}

TEST(ThresholdValidation, WorkflowLikelihoodThresholdRejectsNaN) {
  core::WorkflowConfig config;
  config.likelihood_threshold = kNaN;
  EXPECT_TRUE(core::ValidateWorkflowConfig(config).IsInvalidArgument());
}

TEST(ThresholdValidation, IncrementalIndexRejectsNaN) {
  serve::IncrementalIndexOptions options;
  options.threshold = kNaN;
  EXPECT_TRUE(serve::IncrementalIndex::Create(options).status().IsInvalidArgument());
}

TEST(ThresholdValidation, ServiceThresholdRejectsNaN) {
  serve::ServiceConfig config;
  config.threshold = kNaN;
  EXPECT_TRUE(serve::EntityResolutionService::Create(config).status().IsInvalidArgument());
}

TEST(ThresholdValidation, ServiceMatchThresholdRejectsNaN) {
  serve::ServiceConfig config;
  config.match_threshold = kNaN;
  EXPECT_TRUE(serve::EntityResolutionService::Create(config).status().IsInvalidArgument());
}

TEST(ThresholdValidation, ResolveEntitiesRejectsNaN) {
  core::ResolutionOptions options;
  options.match_threshold = kNaN;
  EXPECT_TRUE(core::ResolveEntities(2, {}, options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace crowder
