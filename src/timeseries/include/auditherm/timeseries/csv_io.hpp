#pragma once

/// \file csv_io.hpp
/// CSV persistence for MultiTrace: one row per sample (`time_minutes`
/// column first, then one column per channel id), empty cells for gaps.
/// This is the interchange format for exporting simulated datasets and for
/// loading a real building trace into the pipeline.

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

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

/// Write the trace as CSV to a stream. Values are written as printf's
/// "%.17g" (max_digits10, so doubles round-trip exactly), and the grid
/// step is persisted as a leading "# step_minutes=N" comment so
/// single-row traces keep their step. The text is formatted with
/// std::to_chars into a bounded buffer, whatever the stream's flags.
void write_csv(std::ostream& os, const MultiTrace& trace);

/// Write the trace to a file; throws std::runtime_error on I/O failure.
void write_csv_file(const std::string& path, const MultiTrace& trace);

/// Every byte left in the stream, read in bulk and sized from the stream
/// when it can seek. Sets eofbit; a stream that is not good() yields "".
[[nodiscard]] std::string read_all(std::istream& is);

/// Parse a trace from CSV bytes in one pass. Lines split on '\n' with one
/// trailing '\r' stripped, so CRLF files parse; blank lines and `#`
/// comment lines are skipped, and a "# step_minutes=N" comment anywhere
/// fixes the grid step, otherwise it is inferred from the first two rows
/// (a single-row file without the comment gets step 1). Cells take
/// std::strtod's syntax: leading whitespace, one optional sign, decimal or
/// 0x hex floats, "inf"/"nan" in any case; times are decimal integers.
/// Empty cells and "nan" are gaps; subnormal samples parse. Throws
/// InputError on malformed input (bad header or duplicate channel, ragged
/// rows, non-uniform or contradicting time steps, unparsable, out-of-range
/// or infinite samples — each reported with its line/column).
[[nodiscard]] MultiTrace read_csv(std::string_view bytes);

/// read_csv over the rest of a stream (drained with read_all).
[[nodiscard]] MultiTrace read_csv(std::istream& is);

}  // namespace auditherm::timeseries
