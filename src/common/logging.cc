#include "common/logging.h"

namespace ask {
namespace detail {

void
log_line(const char* tag, const std::string& msg)
{
    std::cerr << "[" << tag << "] " << msg << "\n";
}

}  // namespace detail
}  // namespace ask
