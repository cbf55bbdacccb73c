// Included by its own .cpp, the umbrella header and a test only: an orphan.
#pragma once
