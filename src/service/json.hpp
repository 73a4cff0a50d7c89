// The daemon's wire codec is the repo's one JSON type (util/json.hpp).
// This alias keeps the service-side spelling `service::Json`, which the
// service headers and perfbench/ use.
#pragma once

#include "util/json.hpp"

namespace nue::service {

using Json = nue::Json;

}  // namespace nue::service
