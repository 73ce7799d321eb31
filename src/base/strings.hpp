// Small string utilities used by the BLIF/PLA parsers and table printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kms {

/// Split on runs of whitespace; no empty tokens.
std::vector<std::string> split_ws(std::string_view line);

/// Trim leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// 64-bit FNV-1a over bytes: the WAL record checksum, and the digest
/// that ties a journal to the exact BLIF serializations it brackets.
std::uint64_t digest_bytes(std::string_view bytes);

/// Append `s` as a quoted, escaped JSON string literal.
void json_append_quoted(std::string* out, std::string_view s);

}  // namespace kms
