// nwhy/io/text_input.hpp
//
// Shared low-level machinery of the text ingest paths: whole-file slurping
// (one read, one allocation — the input to the parallel parsers) and
// allocation-free field scanning over raw character ranges.  The scanners
// replace the istream/istringstream per-line round trips of the original
// readers: std::from_chars over a char window is ~20x cheaper than
// `std::istringstream >> x` and never touches locales.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "nwhy/io/io_error.hpp"
#include "nwobs/counters.hpp"

namespace nw::hypergraph::io_detail {

/// Slurp a whole file into a string (binary mode: offsets reported in
/// errors must match what `dd`/`xxd` show).  Throws io_error on open or
/// read failure.
inline std::string read_file_to_string(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw io_error("cannot open file", path);
  std::string text;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    std::size_t got = std::fread(text.data(), 1, text.size(), f);
    if (got != text.size()) {
      std::fclose(f);
      throw io_error("short read (file changed mid-read?)", path, 0, got);
    }
  }
  std::fclose(f);
  NWOBS_COUNT("io.parse_bytes", text.size());
  return text;
}

/// A scanning cursor over one line (or any char window).  All methods are
/// bounds-checked against `end`; failures surface as `false` returns so the
/// caller can attach file/line/offset context.
struct field_cursor {
  const char* cur;
  const char* end;

  /// Skip spaces and tabs (not newlines — line structure is the caller's).
  void skip_blanks() {
    while (cur < end && (*cur == ' ' || *cur == '\t' || *cur == '\r')) ++cur;
  }

  [[nodiscard]] bool at_end() {
    skip_blanks();
    return cur >= end;
  }

  /// Parse one unsigned decimal field.  Returns false when the next
  /// non-blank run is not a number.
  [[nodiscard]] bool parse_u64(std::uint64_t& out) {
    skip_blanks();
    auto [ptr, ec] = std::from_chars(cur, end, out);
    if (ec != std::errc{} || ptr == cur) return false;
    cur = ptr;
    return true;
  }

  /// Parse one signed decimal field (KONECT ids may be written with signs).
  [[nodiscard]] bool parse_i64(std::int64_t& out) {
    skip_blanks();
    auto [ptr, ec] = std::from_chars(cur, end, out);
    if (ec != std::errc{} || ptr == cur) return false;
    cur = ptr;
    return true;
  }
};

/// Trim a single line to its content: drop a trailing '\r' (CRLF corpora)
/// and leading blanks; returns the content view.
inline std::string_view line_content(std::string_view text, std::size_t begin,
                                     std::size_t end) {
  while (end > begin && (text[end - 1] == '\r' || text[end - 1] == '\n')) --end;
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  return text.substr(begin, end - begin);
}

}  // namespace nw::hypergraph::io_detail
