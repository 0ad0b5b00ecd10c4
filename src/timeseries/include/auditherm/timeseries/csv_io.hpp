#pragma once

/// \file csv_io.hpp
/// CSV persistence for MultiTrace: one row per sample (`time_minutes`
/// column first, then one column per channel id), empty cells for gaps.
/// This is the interchange format for exporting simulated datasets and for
/// loading a real building trace into the pipeline.

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::timeseries {

/// Input data the pipeline cannot use: a malformed trace, a non-finite
/// sample or result, or a data file that cannot be opened (`missing()`).
/// It is a std::runtime_error, so a caller that only prints the message
/// needs no new handler; the daemon answers it with 400, or 404 when
/// missing.
class InputError : public std::runtime_error {
 public:
  explicit InputError(const std::string& what, bool missing = false)
      : std::runtime_error(what), missing_(missing) {}

  [[nodiscard]] bool missing() const noexcept { return missing_; }

 private:
  bool missing_ = false;
};

/// Write the trace as CSV to a stream. Values are written with
/// max_digits10 precision so doubles round-trip exactly, and the grid
/// step is persisted as a leading "# step_minutes=N" comment so
/// single-row traces keep their step.
void write_csv(std::ostream& os, const MultiTrace& trace);

/// Write the trace to a file; throws std::runtime_error on I/O failure.
void write_csv_file(const std::string& path, const MultiTrace& trace);

/// Parse a trace from CSV. `#` comment lines are skipped; a
/// "# step_minutes=N" comment fixes the grid step, otherwise it is
/// inferred from the first two rows (a single-row file without the
/// comment gets step 1). CRLF line endings are accepted. Empty cells and
/// "nan" are gaps. Throws InputError on malformed input (bad header,
/// ragged rows, non-uniform or contradicting time steps, unparsable or
/// infinite samples — each reported with its line/column).
[[nodiscard]] MultiTrace read_csv(std::istream& is);

}  // namespace auditherm::timeseries
