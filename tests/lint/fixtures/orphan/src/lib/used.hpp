// Included by a tool: not an orphan. Its own include keeps detail.hpp alive.
#pragma once

#include "lib/detail.hpp"
