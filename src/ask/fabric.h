/**
 * @file
 * Forwarding header: the multi-switch control plane is
 * AskSwitchController (ask/controller.h), which also declares
 * controller_wal_name(). Kept while perfbench/src still includes it.
 */
#ifndef ASK_ASK_FABRIC_H
#define ASK_ASK_FABRIC_H

#include "ask/controller.h"

#endif  // ASK_ASK_FABRIC_H
