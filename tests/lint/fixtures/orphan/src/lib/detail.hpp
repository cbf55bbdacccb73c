// Included by another library header only: not an orphan.
#pragma once
