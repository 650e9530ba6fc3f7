#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/json.hpp"

/// \file counters.hpp
/// The always-on counters `giad`'s `stats` verb reports with tracing off.
/// Each set is a struct template over its cell type, declared beside its
/// owner (`Server`, `JobScheduler`, `ResultCache`, `StageCacheStats`):
/// `Live` cells, bumped on the hot path with one relaxed `fetch_add`, or
/// `std::uint64_t` in a snapshot. The set's static `walk(v, s...)` names
/// every field once, in wire order, calling `v(name, s.field...)` across
/// the objects it is given; that row is the field's only name. A field that
/// is not a counter is a `Gauge`: a value in a snapshot, no cell on the
/// live side (`load` skips it; the owner fills it in).

namespace gia::core::counters {

using Live = std::atomic<std::uint64_t>;  ///< a live counter cell
struct NoCell {};                         ///< a gauge's live side

template <typename C, typename T = std::uint64_t>
using Gauge = std::conditional_t<std::is_same_v<C, Live>, NoCell, T>;

/// Copy every counter of the live set `live` into the snapshot `snap`.
template <typename L, typename S>
void load(const L& live, S& snap) {
  L::walk(
      [](const char*, const auto& from, auto& to) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(from)>, NoCell>)
          to = from.load(std::memory_order_relaxed);
      },
      live, snap);
}

/// Append every field of the snapshot `s` as a member `"name":value`.
template <typename S>
void append_members(const S& s, std::string& out) {
  S::walk([&out](const char* name, const auto& v) { json::member(name, v, out); }, s);
}

/// Append `"name":{...}` holding the fields of the snapshot `s`.
template <typename S>
void append_object(std::string_view name, const S& s, std::string& out) {
  json::key(name, out);
  out.push_back('{');
  append_members(s, out);
  out.push_back('}');
}

}  // namespace gia::core::counters
