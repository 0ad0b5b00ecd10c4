#include "support/csv_oracle.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::test_support {

using timeseries::ChannelId;
using timeseries::InputError;
using timeseries::Minutes;
using timeseries::MultiTrace;
using timeseries::TimeGrid;

namespace {

/// Comment key persisting the grid step, so a single-row (or empty) trace
/// round-trips instead of silently reading back with step 1.
constexpr const char kStepComment[] = "step_minutes=";

/// The writer emits '\n', but real building exports are often CRLF; strip
/// one trailing '\r' so such files parse instead of feeding "20.5\r" to
/// std::stod.
void strip_trailing_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

/// std::stoll with the raw std::invalid_argument / std::out_of_range
/// replaced by an InputError naming the file position.
Minutes parse_time(const std::string& cell, std::size_t line_number) {
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(cell, &consumed);
    if (consumed != cell.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return static_cast<Minutes>(v);
  } catch (const std::exception&) {
    throw InputError("read_csv: bad time value '" + cell + "' at line " +
                     std::to_string(line_number) + ", column 1");
  }
}

/// std::stod with row/column context on failure (column is the 1-based
/// CSV column, so channel c is column c + 2). An infinite sample ("inf",
/// "-Infinity", ...) is refused: it would poison every fit and error
/// statistic downstream. "nan" still reads as NaN, the gap encoding.
double parse_value(const std::string& cell, std::size_t line_number,
                   std::size_t column) {
  const auto where = [&] {
    return "' at line " + std::to_string(line_number) + ", column " +
           std::to_string(column);
  };
  double v = 0.0;
  try {
    std::size_t consumed = 0;
    v = std::stod(cell, &consumed);
    if (consumed != cell.size()) {
      throw std::invalid_argument("trailing characters");
    }
  } catch (const std::exception&) {
    throw InputError("read_csv: bad sample value '" + cell + where());
  }
  if (std::isinf(v)) {
    throw InputError("read_csv: non-finite sample '" + cell + where());
  }
  return v;
}

ChannelId parse_channel_header(const std::string& header_cell,
                               std::size_t column) {
  if (header_cell.size() < 3 || header_cell.compare(0, 2, "ch") != 0) {
    throw InputError("read_csv: bad channel header '" + header_cell +
                     "' at column " + std::to_string(column));
  }
  try {
    std::size_t consumed = 0;
    const int id = std::stoi(header_cell.substr(2), &consumed);
    if (consumed != header_cell.size() - 2) {
      throw std::invalid_argument("trailing characters");
    }
    return id;
  } catch (const std::exception&) {
    throw InputError("read_csv: bad channel header '" + header_cell +
                     "' at column " + std::to_string(column));
  }
}

}  // namespace

void write_csv_ostream(std::ostream& os, const MultiTrace& trace) {
  // The step comment makes the grid explicit; readers that predate it
  // still parse the file (comments are skipped) and infer the step.
  os << "# " << kStepComment << trace.grid().step() << '\n';
  os << "time_minutes";
  for (ChannelId id : trace.channels()) os << ",ch" << id;
  os << '\n';
  // max_digits10 (17) guarantees doubles survive the decimal round trip
  // bit-for-bit; precision(10) silently truncated them.
  os.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    os << trace.grid()[k];
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      os << ',';
      if (trace.valid(k, c)) os << trace.value(k, c);
    }
    os << '\n';
  }
}

MultiTrace read_csv_stod(std::istream& is) {
  std::string line;
  std::size_t line_number = 0;
  Minutes declared_step = 0;  // 0 = no "# step_minutes=" comment seen

  // Header: the first non-empty, non-comment line. "# step_minutes=N"
  // comments are honored wherever they appear; other comments are skipped.
  std::vector<ChannelId> channels;
  std::size_t header_cells = 0;
  bool have_header = false;
  const auto handle_comment = [&](const std::string& comment) {
    std::size_t pos = 1;  // past '#'
    while (pos < comment.size() && comment[pos] == ' ') ++pos;
    if (comment.compare(pos, sizeof(kStepComment) - 1, kStepComment) != 0) {
      return;  // unknown comment, ignored for forward compatibility
    }
    const std::string value = comment.substr(pos + sizeof(kStepComment) - 1);
    declared_step = parse_time(value, line_number);
    if (declared_step <= 0) {
      throw InputError("read_csv: step_minutes must be positive, got " +
                       value + " at line " + std::to_string(line_number));
    }
  };

  std::vector<Minutes> times;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::size_t> row_lines;  // source line of each data row
  while (std::getline(is, line)) {
    ++line_number;
    strip_trailing_cr(line);
    if (line.empty()) continue;
    if (line.front() == '#') {
      handle_comment(line);
      continue;
    }
    auto cells = split_csv_line(line);
    if (!have_header) {
      if (cells.empty() || cells[0] != "time_minutes") {
        throw InputError("read_csv: bad header, expected time_minutes");
      }
      for (std::size_t c = 1; c < cells.size(); ++c) {
        channels.push_back(parse_channel_header(cells[c], c + 1));
      }
      header_cells = cells.size();
      have_header = true;
      continue;
    }
    if (cells.size() != header_cells) {
      throw InputError("read_csv: ragged row at line " +
                       std::to_string(line_number));
    }
    times.push_back(parse_time(cells[0], line_number));
    rows.push_back(std::move(cells));
    row_lines.push_back(line_number);
  }
  if (!have_header) {
    throw InputError("read_csv: empty input");
  }

  const Minutes start = times.empty() ? 0 : times.front();
  Minutes step = declared_step > 0 ? declared_step : 1;
  if (times.size() >= 2) {
    const Minutes inferred = times[1] - times[0];
    if (inferred <= 0) {
      throw InputError("read_csv: non-increasing time");
    }
    if (declared_step > 0 && inferred != declared_step) {
      throw InputError(
          "read_csv: step_minutes=" + std::to_string(declared_step) +
          " disagrees with the data step " + std::to_string(inferred));
    }
    step = inferred;
    for (std::size_t k = 1; k < times.size(); ++k) {
      if (times[k] - times[k - 1] != step) {
        throw InputError("read_csv: non-uniform time step at line " +
                         std::to_string(row_lines[k]));
      }
    }
  }

  MultiTrace trace(TimeGrid(start, step, rows.size()), channels);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const std::string& cell = rows[k][c + 1];
      if (!cell.empty()) {
        trace.set(k, c, parse_value(cell, row_lines[k], c + 2));
      }
    }
  }
  return trace;
}

}  // namespace auditherm::test_support
