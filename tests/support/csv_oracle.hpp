#pragma once

/// \file csv_oracle.hpp
/// The CSV reader and writer the library used before its one-pass
/// from_chars / to_chars rewrite, kept as the references that
/// timeseries::read_csv and timeseries::write_csv are checked against.
/// Not linked into any production binary.

#include <iosfwd>

#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::test_support {

/// The getline / stringstream / std::stod reader: every error message,
/// accepted syntax and check order of timeseries::read_csv, except that
/// subnormal samples fail ("bad sample value": std::stod reports ERANGE
/// for them), NaN payloads survive, and a channel id named twice throws
/// MultiTrace's std::invalid_argument rather than an InputError.
[[nodiscard]] timeseries::MultiTrace read_csv_stod(std::istream& is);

/// The std::ostream writer (precision max_digits10 on the caller's
/// stream): timeseries::write_csv must produce exactly its bytes.
void write_csv_ostream(std::ostream& os, const timeseries::MultiTrace& trace);

}  // namespace auditherm::test_support
