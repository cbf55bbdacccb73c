// An orphan kept on purpose, with a reasoned suppression.
// vdc-lint: orphan-header-ok fixture: a suppressed finding
#pragma once
