#pragma once

/// \file auditherm.hpp
/// Umbrella header: the full public API of the auditherm library.
///
/// auditherm reproduces "Thermal Modeling for a HVAC Controlled Real-life
/// Auditorium" (ICDCS 2014): data-driven thermal modeling for large open
/// spaces by combining spectral clustering of a dense sensor network with
/// linear system identification, plus the simulated auditorium testbed
/// used to generate datasets.

// Numerics.
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/least_squares.hpp"
#include "auditherm/linalg/matrix.hpp"
#include "auditherm/linalg/sparse.hpp"
#include "auditherm/linalg/stats.hpp"
#include "auditherm/linalg/vector_ops.hpp"

// Gapped multi-channel traces.
#include "auditherm/timeseries/csv_io.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/segmentation.hpp"
#include "auditherm/timeseries/time_grid.hpp"
#include "auditherm/timeseries/trace_stats.hpp"

// HVAC plant pieces and comfort.
#include "auditherm/hvac/comfort.hpp"
#include "auditherm/hvac/schedule.hpp"
#include "auditherm/hvac/thermostat.hpp"
#include "auditherm/hvac/vav.hpp"

// The simulated auditorium testbed and fleet scenario generation.
#include "auditherm/sim/dataset.hpp"
#include "auditherm/sim/floorplan.hpp"
#include "auditherm/sim/occupancy.hpp"
#include "auditherm/sim/plant.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/sim/sensor_model.hpp"
#include "auditherm/sim/weather.hpp"

// System identification (eq. 1-4).
#include "auditherm/sysid/diagnostics.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/evaluation.hpp"
#include "auditherm/sysid/input_plan.hpp"
#include "auditherm/sysid/kalman.hpp"
#include "auditherm/sysid/occupancy_estimation.hpp"
#include "auditherm/sysid/model.hpp"

// Spectral sensor clustering (Section V).
#include "auditherm/clustering/baselines.hpp"
#include "auditherm/clustering/kmeans.hpp"
#include "auditherm/clustering/similarity.hpp"
#include "auditherm/clustering/spectral.hpp"

// Representative-sensor selection (Section VI).
#include "auditherm/selection/evaluation.hpp"
#include "auditherm/selection/gp_placement.hpp"
#include "auditherm/selection/strategies.hpp"

// Model-based HVAC control (the paper's motivating application).
#include "auditherm/control/closed_loop.hpp"
#include "auditherm/control/controllers.hpp"
#include "auditherm/control/fleet_control.hpp"

// Observability: metrics registry, tracing spans, exporters.
#include "auditherm/obs/export.hpp"
#include "auditherm/obs/metrics.hpp"
#include "auditherm/obs/trace_span.hpp"

// The end-to-end three-step pipeline.
#include "auditherm/core/cli.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/core/split.hpp"
