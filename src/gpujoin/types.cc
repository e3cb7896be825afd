#include "src/gpujoin/types.h"

#include <algorithm>

namespace gjoin::gpujoin {

util::Result<DeviceRelation> DeviceRelation::Upload(
    sim::Device* device, const data::Relation& rel) {
  return Upload(device, data::RelationView::Of(rel));
}

util::Result<DeviceRelation> DeviceRelation::Upload(
    sim::Device* device, const data::RelationView& view) {
  DeviceRelation out;
  out.size = view.size;
  out.logical_payload_bytes = view.logical_payload_bytes;
  GJOIN_ASSIGN_OR_RETURN(
      out.keys, device->memory().Allocate<uint32_t>(view.size, "upload:keys"));
  GJOIN_ASSIGN_OR_RETURN(out.payloads, device->memory().Allocate<uint32_t>(
                                           view.size, "upload:payloads"));
  std::copy_n(view.keys, view.size, out.keys.data());
  std::copy_n(view.payloads, view.size, out.payloads.data());
  return out;
}

}  // namespace gjoin::gpujoin
