#include "hmcs/util/output_file.hpp"

#include <filesystem>
#include <system_error>

namespace hmcs {

std::ofstream open_output_file(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::symlink_status(path, ec).type() ==
      std::filesystem::file_type::regular) {
    // A failed remove leaves the truncating open below to succeed or
    // fail on its own.
    std::filesystem::remove(path, ec);
  }
  return std::ofstream(path, std::ios::out | std::ios::trunc);
}

}  // namespace hmcs
