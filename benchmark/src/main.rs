fn main() -> std::process::ExitCode {
    graphmat_benchmark::cli::main()
}
