#pragma once

// One spelling table per enum. An enum opts in by declaring, next to
// itself, `std::span<const EnumName<E>> enum_names(E)` (found by ADL);
// to_string, from_string and the "known:" lists of error messages all
// read that table, so every name is written exactly once. Suite files,
// CLI flags and result rows share the spellings.

#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace rdcn {

template <class Enum>
struct EnumName {
  Enum value;
  const char* name;
};

template <class Enum>
concept NamedEnum = requires(Enum value) {
  { enum_names(value) } -> std::convertible_to<std::span<const EnumName<Enum>>>;
};

/// The table's spelling of `value`; "?" for an enumerator it leaves out.
template <NamedEnum Enum>
const char* to_string(Enum value) {
  for (const EnumName<Enum>& entry : enum_names(value)) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// The enumerator spelled `text`, or nullopt.
template <NamedEnum Enum>
std::optional<Enum> from_string(std::string_view text) {
  for (const EnumName<Enum>& entry : enum_names(Enum{})) {
    if (text == entry.name) return entry.value;
  }
  return std::nullopt;
}

/// Every spelling, each preceded by a space (" a b c"), for messages.
template <NamedEnum Enum>
std::string known_names() {
  std::string known;
  for (const EnumName<Enum>& entry : enum_names(Enum{})) {
    known += ' ';
    known += entry.name;
  }
  return known;
}

}  // namespace rdcn
