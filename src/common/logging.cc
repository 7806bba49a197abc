#include "common/logging.h"

namespace ask {
namespace detail {

void
log_line(const char* tag, const std::string& msg)
{
    // One insertion per line: std::cerr writes each insertion through on
    // its own, so a line built in pieces interleaves with other threads'.
    std::string line;
    line.reserve(msg.size() + 16);
    line.append("[").append(tag).append("] ").append(msg).push_back('\n');
    std::cerr << line;
}

}  // namespace detail
}  // namespace ask
