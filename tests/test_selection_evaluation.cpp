// Tests for cluster-mean prediction evaluation (the Table II metric).

#include "auditherm/selection/evaluation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace selection = auditherm::selection;
namespace ts = auditherm::timeseries;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

/// Cluster {1, 2, 3}: values 19, 20, 21 -> mean 20. Cluster {4, 5}:
/// values 23, 25 -> mean 24.
MultiTrace make_validation(std::size_t n = 10) {
  MultiTrace trace(TimeGrid(0, 30, n), {1, 2, 3, 4, 5});
  for (std::size_t k = 0; k < n; ++k) {
    trace.set(k, 0, 19.0);
    trace.set(k, 1, 20.0);
    trace.set(k, 2, 21.0);
    trace.set(k, 3, 23.0);
    trace.set(k, 4, 25.0);
  }
  return trace;
}

const selection::ClusterSets kClusters{{1, 2, 3}, {4, 5}};

}  // namespace

TEST(SelectionEval, ExactSensorGivesZeroError) {
  const auto validation = make_validation();
  selection::Selection sel;
  sel.per_cluster = {{2}, {4}};  // 2 hits cluster A's mean exactly
  const auto errors = selection::evaluate_cluster_mean_prediction(
      validation, kClusters, sel);
  ASSERT_EQ(errors.per_cluster_abs.size(), 2u);
  for (double e : errors.per_cluster_abs[0]) EXPECT_DOUBLE_EQ(e, 0.0);
  for (double e : errors.per_cluster_abs[1]) EXPECT_DOUBLE_EQ(e, 1.0);
  EXPECT_DOUBLE_EQ(errors.percentile(99.0), 1.0);
}

TEST(SelectionEval, MeanOfMultipleSelectedSensors) {
  const auto validation = make_validation();
  selection::Selection sel;
  sel.per_cluster = {{1, 3}, {4, 5}};  // means: 20 (exact), 24 (exact)
  const auto errors = selection::evaluate_cluster_mean_prediction(
      validation, kClusters, sel);
  EXPECT_DOUBLE_EQ(errors.percentile(99.0), 0.0);
  for (double e : errors.pooled()) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(SelectionEval, CrossZoneSelectionSeesTheGap) {
  const auto validation = make_validation();
  selection::Selection sel;
  sel.per_cluster = {{2}, {2}};  // cluster B represented by a cool sensor
  const auto errors = selection::evaluate_cluster_mean_prediction(
      validation, kClusters, sel);
  // Cluster B error = |20 - 24| = 4.
  EXPECT_DOUBLE_EQ(errors.percentile(99.0), 4.0);
}

TEST(SelectionEval, PooledCollectsAllClusters) {
  const auto validation = make_validation(5);
  selection::Selection sel;
  sel.per_cluster = {{1}, {4}};
  const auto errors = selection::evaluate_cluster_mean_prediction(
      validation, kClusters, sel);
  EXPECT_EQ(errors.pooled().size(), 10u);  // 5 rows x 2 clusters
}

TEST(SelectionEval, SkipsRowsWithMissingData) {
  auto validation = make_validation(6);
  validation.clear(0, 0);
  validation.clear(0, 1);
  validation.clear(0, 2);  // cluster A fully missing at row 0
  selection::Selection sel;
  sel.per_cluster = {{2}, {4}};
  const auto errors = selection::evaluate_cluster_mean_prediction(
      validation, kClusters, sel);
  EXPECT_EQ(errors.per_cluster_abs[0].size(), 5u);
  EXPECT_EQ(errors.per_cluster_abs[1].size(), 6u);
}

TEST(SelectionEval, Validation) {
  const auto validation = make_validation();
  selection::Selection wrong_count;
  wrong_count.per_cluster = {{1}};
  EXPECT_THROW((void)selection::evaluate_cluster_mean_prediction(
                   validation, kClusters, wrong_count),
               std::invalid_argument);
  selection::Selection empty_cluster;
  empty_cluster.per_cluster = {{1}, {}};
  EXPECT_THROW((void)selection::evaluate_cluster_mean_prediction(
                   validation, kClusters, empty_cluster),
               std::invalid_argument);
}

TEST(SelectionEval, PercentileOfEmptyThrows) {
  selection::ClusterMeanErrors empty;
  EXPECT_THROW((void)empty.percentile(99.0), std::runtime_error);
}
