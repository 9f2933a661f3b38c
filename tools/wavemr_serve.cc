// Standalone query server: builds (or loads) a wavelet-histogram snapshot
// and serves point/range/top-k estimates over the length-prefixed TCP
// protocol until SIGINT/SIGTERM.
//
//   wavemr_serve --generate=zipf --n=1000000 --algo=twolevel-s --port=7070
//   wavemr_serve --snapshot=histogram.snap --port=0   # ephemeral port
//
// Prints "wavemr_serve listening on port N" once ready. Query it with
// `wavemr_cli query` or bench_serve_load.
#include "serve/serve_main.h"

int main(int argc, char** argv) { return wavemr::ServeMain(argc, argv, 1); }
