// One field list per stats struct, and the two walks over it
// (docs/OBSERVABILITY.md rule 3).
//
// A stats struct (serving::EngineStats, net::ServerStats, ...) declares
// next to its members one constexpr tuple `kFields` of
// obs::Field{"<metric name>", &Struct::member}. publish_fields() sets a
// "<prefix>.<name>" gauge per entry; merge_fields() sums every data member
// into another instance. An entry may name a const getter instead: a value
// derived from other fields, published but never summed. Both walks
// static_assert that the list names every data member (counted by
// aggregate initialization), so a field added without an entry fails to
// build.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "obs/metrics.h"

namespace bt::obs {

template <typename Member>
struct Field {
  std::string_view name;  // metric suffix; lint.sh rule 5 catalogs it
  Member member;          // data member pointer or const getter
};
template <typename Member>
Field(std::string_view, Member) -> Field<Member>;

namespace detail {

template <typename Member>
inline constexpr bool kIsData = std::is_member_object_pointer_v<Member>;

// Converts to any member type: S{AnyValue{}...} compiles while the braces
// hold no more values than S has data members.
struct AnyValue {
  template <typename T>
  operator T() const;
};

template <typename S, typename... Values>
constexpr std::size_t member_count() {
  if constexpr (requires { S{Values{}..., AnyValue{}}; }) {
    return member_count<S, Values..., AnyValue>();
  }
  return sizeof...(Values);
}

template <typename S>
constexpr bool lists_every_member() {
  return std::apply([](const auto&... f) {
           return (std::size_t{0} + ... + kIsData<decltype(f.member)>);
         }, S::kFields) == member_count<S>();
}

}  // namespace detail

template <typename S>
void publish_fields(MetricRegistry& reg, std::string_view prefix,
                    const S& s) {
  static_assert(detail::lists_every_member<S>(), "kFields misses a member");
  std::apply([&](const auto&... f) {
    (reg.gauge(std::string(prefix) + '.' + std::string(f.name))
         .set(static_cast<double>(std::invoke(f.member, s))), ...);
  }, S::kFields);
}

template <typename S>
void merge_fields(S& into, const S& from) {
  static_assert(detail::lists_every_member<S>(), "kFields misses a member");
  std::apply([&](const auto&... f) {
    ([&] {
      if constexpr (detail::kIsData<decltype(f.member)>) {
        into.*f.member += from.*f.member;
      }
    }(), ...);
  }, S::kFields);
}

}  // namespace bt::obs
