#include "auditherm/timeseries/csv_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "auditherm/obs/trace_span.hpp"

namespace auditherm::timeseries {

namespace {

/// Comment key persisting the grid step, so a single-row (or empty) trace
/// round-trips instead of silently reading back with step 1.
constexpr std::string_view kStepComment = "step_minutes=";

constexpr double kGap = std::numeric_limits<double>::quiet_NaN();

/// The whitespace std::strtod and std::strtoll skip before a number (the
/// "C" locale's isspace; '\n' never reaches a cell).
bool is_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' ||
         ch == '\f' || ch == '\r';
}

bool is_hex_digit(char ch) {
  return (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') ||
         (ch >= 'A' && ch <= 'F');
}

/// Parse a time at `first` with std::stoll's syntax: leading whitespace,
/// one optional sign, decimal digits. Returns the end of the number (the
/// caller checks that the cell ends there), or nullptr when no number
/// starts at `first` or it overflows.
const char* parse_integer(const char* first, const char* last, Minutes& out) {
  while (first != last && is_space(*first)) ++first;
  // from_chars takes '-' itself but not '+', so "+-1" must stop here.
  if (first != last && *first == '+' && ++first != last && *first == '-') {
    return nullptr;
  }
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc() ? end : nullptr;
}

/// Parse a sample at `first` with std::stod's syntax: leading whitespace,
/// one optional sign, then a decimal float, a 0x hex float, inf/infinity
/// or nan/nan(...). Returns the end of the number (the caller checks that
/// the cell ends there), or nullptr when no number starts at `first` or
/// its magnitude overflows or underflows to zero; subnormals parse.
const char* parse_double(const char* first, const char* last, double& out) {
  while (first != last && is_space(*first)) ++first;
  const bool negative = first != last && *first == '-';
  if (first != last && (*first == '+' || *first == '-')) ++first;
  std::from_chars_result r{};
  if (last - first > 2 && first[0] == '0' &&
      (first[1] == 'x' || first[1] == 'X') &&
      (is_hex_digit(first[2]) || first[2] == '.')) {
    r = std::from_chars(first + 2, last, out, std::chars_format::hex);
  } else if (first != last && (*first == '+' || *first == '-')) {
    return nullptr;  // a second sign
  } else {
    r = std::from_chars(first, last, out);
  }
  if (r.ec != std::errc()) return nullptr;
  if (negative) out = -out;
  return r.ptr;
}

/// The InputError for a time cell std::stoll would refuse.
[[noreturn]] void bad_time(std::string_view cell, std::size_t line_number) {
  throw InputError("read_csv: bad time value '" + std::string(cell) +
                   "' at line " + std::to_string(line_number) + ", column 1");
}

/// A whole cell as a time, or the InputError naming its position.
Minutes parse_time(std::string_view cell, std::size_t line_number) {
  Minutes v = 0;
  const char* const last = cell.data() + cell.size();
  if (parse_integer(cell.data(), last, v) != last) bad_time(cell, line_number);
  return v;
}

/// a - b with two's-complement wraparound instead of signed overflow.
Minutes wrapping_difference(Minutes a, Minutes b) {
  return static_cast<Minutes>(static_cast<std::uint64_t>(a) -
                              static_cast<std::uint64_t>(b));
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
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

/// The first unusable value cell. It is thrown only after every check
/// that reads the whole file, because values used to be parsed last.
struct ValueError {
  std::string_view cell;
  std::size_t line = 0;  ///< 0 = none seen
  std::size_t column = 0;
  bool non_finite = false;

  [[noreturn]] void raise() const {
    throw InputError(std::string("read_csv: ") +
                     (non_finite ? "non-finite sample '"
                                 : "bad sample value '") +
                     std::string(cell) + "' at line " + std::to_string(line) +
                     ", column " + std::to_string(column));
  }
};

/// Bounded output buffer for write_csv: every field is formatted in place
/// with std::to_chars, and the buffer goes to the stream whenever the next
/// field might not fit, so memory stays constant whatever the trace size.
class ChunkedWriter {
 public:
  explicit ChunkedWriter(std::ostream& os) : os_(os), buffer_(kSize) {}

  void text(std::string_view s) {
    room(s.size());
    std::memcpy(buffer_.data() + used_, s.data(), s.size());
    used_ += s.size();
  }
  void put(char ch) {
    room(1);
    buffer_[used_++] = ch;
  }
  /// std::to_chars in place; `args` are its value and format arguments.
  template <typename... Args>
  void number(Args... args) {
    room(kMaxNumber);
    char* const first = buffer_.data() + used_;
    used_ += static_cast<std::size_t>(
        std::to_chars(first, buffer_.data() + kSize, args...).ptr - first);
  }
  void flush() {
    os_.write(buffer_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kSize = std::size_t{1} << 16;
  /// Longer than any number written ("-1.2345678901234567e-308" is 24).
  static constexpr std::size_t kMaxNumber = 32;

  void room(std::size_t n) {
    if (kSize - used_ < n) flush();
  }

  std::ostream& os_;
  std::vector<char> buffer_;
  std::size_t used_ = 0;
};

}  // namespace

void write_csv(std::ostream& os, const MultiTrace& trace) {
  ChunkedWriter out(os);
  // The step comment makes the grid explicit; readers that predate it
  // still parse the file (comments are skipped) and infer the step.
  out.text("# ");
  out.text(kStepComment);
  out.number(trace.grid().step());
  out.text("\ntime_minutes");
  for (ChannelId id : trace.channels()) {
    out.text(",ch");
    out.number(id);
  }
  out.put('\n');
  for (std::size_t k = 0; k < trace.size(); ++k) {
    out.number(trace.grid()[k]);
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      out.put(',');
      // printf's "%.17g": max_digits10, so doubles survive the decimal
      // round trip bit for bit.
      if (trace.valid(k, c)) {
        out.number(trace.value(k, c), std::chars_format::general,
                   std::numeric_limits<double>::max_digits10);
      }
    }
    out.put('\n');
  }
  out.flush();
}

void write_csv_file(const std::string& path, const MultiTrace& trace) {
  bool ok = false;
  {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("write_csv_file: cannot open " + path);
    write_csv(f, trace);
    f.flush();
    ok = static_cast<bool>(f);
  }
  if (!ok) {
    // A failed write leaves a truncated CSV that a later read would accept
    // as a (wrong) shorter trace — remove it so the failure is loud.
    std::remove(path.c_str());
    throw std::runtime_error("write_csv_file: write failed for " + path +
                             " (partial file removed)");
  }
}

std::string read_all(std::istream& is) {
  using traits = std::istream::traits_type;
  std::string bytes;
  const std::istream::sentry ok(is, /*noskipws=*/true);
  if (!ok) return bytes;
  std::streambuf& buf = *is.rdbuf();
  // Files and string streams can say how much is left: one allocation.
  std::size_t expected = 0;
  const auto here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  const auto last = buf.pubseekoff(0, std::ios::end, std::ios::in);
  if (here != std::streampos(-1) && last != std::streampos(-1)) {
    buf.pubseekpos(here, std::ios::in);
    if (last > here) expected = static_cast<std::size_t>(last - here);
  }
  // Read to EOF whatever the size said: a short read, or nothing after
  // the expected bytes, is the end.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  for (std::size_t chunk = expected > 0 ? expected : kChunk;;
       chunk = kChunk) {
    const std::size_t used = bytes.size();
    bytes.resize(used + chunk);
    const auto got = static_cast<std::size_t>(
        buf.sgetn(bytes.data() + used, static_cast<std::streamsize>(chunk)));
    bytes.resize(used + got);
    if (got < chunk || traits::eq_int_type(buf.sgetc(), traits::eof())) {
      break;
    }
  }
  is.setstate(std::ios::eofbit);
  return bytes;
}

MultiTrace read_csv(std::istream& is) { return read_csv(read_all(is)); }

MultiTrace read_csv(std::string_view bytes) {
  const obs::TraceSpan span("timeseries.read_csv");
  const char* pos = bytes.data();
  const char* const end = pos + bytes.size();
  std::size_t line_number = 0;
  // The next line without its '\n' and one trailing '\r' (real building
  // exports are often CRLF); false at the end of the input.
  std::string_view line;
  const auto next_line = [&] {
    if (pos == end) return false;
    const auto* nl = static_cast<const char*>(
        std::memchr(pos, '\n', static_cast<std::size_t>(end - pos)));
    const char* stop = nl != nullptr ? nl : end;
    line = std::string_view(pos, static_cast<std::size_t>(stop - pos));
    pos = nl != nullptr ? nl + 1 : end;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return true;
  };

  // "# step_minutes=N" comments are honored wherever they appear; other
  // comments are skipped.
  Minutes declared_step = 0;  // 0 = no "# step_minutes=" comment seen
  const auto handle_comment = [&] {
    std::size_t at = 1;  // past '#'
    while (at < line.size() && line[at] == ' ') ++at;
    if (line.substr(at, kStepComment.size()) != kStepComment) {
      return;  // unknown comment, ignored for forward compatibility
    }
    const std::string_view value = line.substr(at + kStepComment.size());
    declared_step = parse_time(value, line_number);
    if (declared_step <= 0) {
      throw InputError("read_csv: step_minutes must be positive, got " +
                       std::string(value) + " at line " +
                       std::to_string(line_number));
    }
  };

  // Header: the first non-empty, non-comment line.
  std::vector<ChannelId> channels;
  std::size_t header_cells = 0;
  while (header_cells == 0 && next_line()) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      handle_comment();
      continue;
    }
    const auto cells = split_csv_line(std::string(line));
    if (cells.empty() || cells[0] != "time_minutes") {
      throw InputError("read_csv: bad header, expected time_minutes");
    }
    for (std::size_t c = 1; c < cells.size(); ++c) {
      channels.push_back(parse_channel_header(cells[c], c + 1));
    }
    header_cells = cells.size();
  }
  if (header_cells == 0) {
    throw InputError("read_csv: empty input");
  }

  // Row-major samples, written once each into what becomes the trace's
  // storage. Every line left is at most one row, and a row needs at least
  // one byte per cell, which bounds the reservation for hostile input.
  const std::size_t width = channels.size();
  const auto remaining = static_cast<std::size_t>(end - pos);
  const std::size_t max_rows =
      std::min(static_cast<std::size_t>(std::count(pos, end, '\n')) + 1,
               remaining / header_cells + 1);
  std::vector<double> values;
  values.reserve(max_rows * width);

  // The time checks need only the first two times and the first row that
  // breaks their step; they run after the scan, as comments may follow.
  std::size_t rows = 0;
  Minutes start = 0;
  Minutes previous = 0;
  Minutes inferred = 0;
  std::size_t non_uniform_line = 0;  // 0 = every step matched
  ValueError bad_value;
  while (next_line()) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      handle_comment();
      continue;
    }
    // One walk over the cells, each parsed where it starts: a cell ends
    // where its number does, and is searched for its comma only when it is
    // not one whole number. The values go straight into the storage (their
    // errors wait, see ValueError); the row's shape, then its time, are
    // checked after the walk.
    const char* const line_end = line.data() + line.size();
    const auto cell_end = [line_end](const char* p) {
      while (p != line_end && *p != ',') ++p;
      return p;
    };
    const auto ends_cell = [line_end](const char* p) {
      return p != nullptr && (p == line_end || *p == ',');
    };
    Minutes t = 0;
    const char* comma = parse_integer(line.data(), line_end, t);
    const bool time_ok = ends_cell(comma);
    if (!time_ok) comma = cell_end(line.data());
    const std::string_view time_text(
        line.data(), static_cast<std::size_t>(comma - line.data()));
    std::size_t cells = 1;
    for (; cells < header_cells && comma != line_end; ++cells) {
      const char* const cell = comma + 1;
      double v = kGap;  // an empty cell is a gap; so is "nan"
      comma = cell;
      if (cell != line_end && *cell != ',') {
        comma = parse_double(cell, line_end, v);
        const bool parsed = ends_cell(comma);
        if (!parsed) {
          comma = cell_end(cell);
          v = kGap;
        }
        if ((!parsed || std::isinf(v)) && bad_value.line == 0) {
          // An infinite sample would poison every fit and error
          // statistic downstream.
          bad_value = {std::string_view(cell, static_cast<std::size_t>(
                                                  comma - cell)),
                       line_number, cells + 1, parsed};
        }
      }
      values.push_back(v);
    }
    if (cells != header_cells || comma != line_end) {
      throw InputError("read_csv: ragged row at line " +
                       std::to_string(line_number));
    }
    if (!time_ok) bad_time(time_text, line_number);
    if (rows == 0) {
      start = t;
    } else if (rows == 1) {
      inferred = wrapping_difference(t, previous);
    } else if (non_uniform_line == 0 &&
               wrapping_difference(t, previous) != inferred) {
      non_uniform_line = line_number;
    }
    previous = t;
    ++rows;
  }

  Minutes step = declared_step > 0 ? declared_step : 1;
  if (rows >= 2) {
    if (inferred <= 0) {
      throw InputError("read_csv: non-increasing time");
    }
    if (declared_step > 0 && inferred != declared_step) {
      throw InputError(
          "read_csv: step_minutes=" + std::to_string(declared_step) +
          " disagrees with the data step " + std::to_string(inferred));
    }
    step = inferred;
    if (non_uniform_line != 0) {
      throw InputError("read_csv: non-uniform time step at line " +
                       std::to_string(non_uniform_line));
    }
  }

  MultiTrace trace;
  try {
    trace = MultiTrace(TimeGrid(start, step, rows), std::move(channels),
                       linalg::Matrix(rows, width, std::move(values)));
  } catch (const std::invalid_argument& e) {
    throw InputError(e.what());  // a channel id named twice in the header
  }
  if (bad_value.line != 0) bad_value.raise();
  return trace;
}

}  // namespace auditherm::timeseries
