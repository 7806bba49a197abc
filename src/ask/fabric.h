/**
 * @file
 * Forwarding header: the multi-switch control plane is
 * AskSwitchController (ask/controller.h). Kept, with
 * controller_wal_name(), while perfbench/src still includes it.
 */
#ifndef ASK_ASK_FABRIC_H
#define ASK_ASK_FABRIC_H

#include <string>

#include "ask/controller.h"

namespace ask::core {

/**
 * `s == 0` names the one log the controller writes ("controller",
 * WalStore::controller_wal()); any other switch gets
 * "controller.s<N>", a log nothing writes.
 */
inline std::string
controller_wal_name(SwitchId s)
{
    if (s.value() == 0)
        return "controller";
    return "controller.s" + std::to_string(s.value());
}

}  // namespace ask::core

#endif  // ASK_ASK_FABRIC_H
