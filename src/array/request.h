// Client-visible request type for the array.

#ifndef AFRAID_ARRAY_REQUEST_H_
#define AFRAID_ARRAY_REQUEST_H_

#include <cstdint>

#include "sim/callback.h"
#include "sim/time.h"

namespace afraid {

struct ClientRequest {
  uint64_t id = 0;       // Unique per request (assigned by the host driver).
  int64_t offset = 0;    // Byte offset into the array's logical data space.
  int32_t size = 0;      // Bytes; > 0, sector-aligned.
  bool is_write = false;
  SimTime arrival = 0;   // When the request entered the host device driver.
};

// Completion notification: fires when the array has finished the request.
// Sized so the host driver's [driver, request] capture stays inline.
using RequestDone = SmallCallback<void(), 48>;

}  // namespace afraid

#endif  // AFRAID_ARRAY_REQUEST_H_
