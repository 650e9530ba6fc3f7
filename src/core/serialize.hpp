#pragma once

#include <string>

#include "core/flow.hpp"
#include "core/headline.hpp"
#include "core/json.hpp"

/// \file serialize.hpp
/// JSON round-trip serialization for flow results -- the payload format of
/// the serving layer (src/serve): daemon responses, the on-disk result
/// cache under GIA_CACHE_DIR, and offline archiving of design points.
///
/// The serialization is *summary-level*: every scalar a table, report or
/// serving client consumes is captured (SerDes/partition/PnR/interposer
/// metrics, link delays and eyes, PDN model + impedance profile, IR
/// drop/settling, thermal hotspots, full-chip rollup), while bulk internal
/// artifacts are deliberately omitted (bump site lists, routed geometry,
/// waveforms, thermal fields, eye rasters, partition assignments). The
/// technology itself is stored as its kind token and rebuilt through
/// `tech::make_technology`, so design rules are never duplicated.
///
/// Round-trip contract: `technology_result_to_json` emits canonical
/// single-line JSON (fixed key order, %.17g doubles);
/// `technology_result_from_json(technology_result_to_json(r))` restores
/// every serialized field exactly, and re-serializing the parsed result
/// reproduces the original string byte-for-byte.

namespace gia::core {

std::string technology_result_to_json(const TechnologyResult& r);
/// Parse a result produced by `technology_result_to_json`. The reader is
/// strict: every key must be present and no other key may appear, each value
/// must have its field's JSON kind (an integer field takes no fraction and no
/// value its type cannot hold; 1e3 reads as 1000), `side` and `tech` must be
/// known tokens, an optional block is null or an object, and the impedance
/// arrays must have equal length. Any violation throws std::runtime_error
/// naming the dotted path. Fields outside the serialized summary are left
/// default-initialized.
TechnologyResult technology_result_from_json(const std::string& text);
/// Same, from an already-parsed `{"technology_result":{...}}` document.
TechnologyResult technology_result_from_value(const json::Value& top);

std::string headline_metrics_to_json(const HeadlineMetrics& h);
HeadlineMetrics headline_metrics_from_json(const std::string& text);

}  // namespace gia::core
