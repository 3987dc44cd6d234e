(* [perfbench/] names this module [Lazyctrl_perf.Json] and may not be
   edited, so the alias stays; the codec itself is [Lazyctrl_util.Json]. *)
include Lazyctrl_util.Json
