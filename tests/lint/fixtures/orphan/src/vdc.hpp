// The umbrella header: its includes keep nothing alive.
#pragma once

#include "lib/kept.hpp"
#include "lib/orphan.hpp"
#include "lib/used.hpp"
