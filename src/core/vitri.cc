#include "core/vitri.h"

#include <cmath>
#include <limits>

#include "common/coding.h"
#include "geometry/hypersphere.h"

namespace vitri::core {

double ViTri::LogDensity() const {
  if (radius <= 0.0) return std::numeric_limits<double>::infinity();
  return std::log(static_cast<double>(cluster_size)) -
         geometry::LogBallVolume(dimension(), radius);
}

void ViTri::Serialize(std::vector<uint8_t>* out) const {
  out->resize(SerializedSize(dimension()));
  uint8_t* p = out->data();
  EncodeU32(p, video_id);
  EncodeU32(p + 4, cluster_size);
  EncodeDouble(p + 8, radius);
  for (int i = 0; i < dimension(); ++i) {
    EncodeDouble(p + 16 + 8 * static_cast<size_t>(i), position[i]);
  }
}

Status ViTri::DeserializeInto(std::span<const uint8_t> bytes, int dimension,
                              ViTri* out) {
  if (bytes.size() != SerializedSize(dimension)) {
    return Status::InvalidArgument("serialized ViTri size mismatch");
  }
  const uint8_t* p = bytes.data();
  out->video_id = DecodeU32(p);
  out->cluster_size = DecodeU32(p + 4);
  out->radius = DecodeDouble(p + 8);
  out->position.resize(static_cast<size_t>(dimension));
  for (int i = 0; i < dimension; ++i) {
    out->position[i] = DecodeDouble(p + 16 + 8 * static_cast<size_t>(i));
  }
  return Status::OK();
}

Result<ViTri> ViTri::Deserialize(std::span<const uint8_t> bytes,
                                 int dimension) {
  ViTri v;
  VITRI_RETURN_IF_ERROR(DeserializeInto(bytes, dimension, &v));
  return v;
}

}  // namespace vitri::core
