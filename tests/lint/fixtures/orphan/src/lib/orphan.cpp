#include "lib/orphan.hpp"
