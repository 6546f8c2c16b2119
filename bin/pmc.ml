(* pmc — one executable for every tool of the repository: simulated app
   runs, tracing, litmus enumeration, annotation checking, the benchmark
   harness, fault injection and the checking service, as subcommands over
   the shared arguments of [Cli]. *)

open Pmc_cli

let () =
  exit
    (Cmdliner.Cmd.eval'
       (Cli.group "pmc" ~doc:"Portable memory consistency on simulated SoCs"
          [
            Cmd_run.cmd; Cmd_trace.cmd; Cmd_litmus.cmd; Cmd_check.cmd;
            Cmd_bench.cmd; Cmd_chaos.cmd; Cmd_serve.cmd;
          ]))
