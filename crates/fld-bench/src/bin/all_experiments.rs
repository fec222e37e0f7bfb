//! Runs every experiment in DESIGN.md §4 order and prints the full report.
//!
//! The sections themselves run on one worker thread per core (each
//! section's internal sweep fans out again); the report always prints in
//! DESIGN.md order.
use fld_bench::report::{Cli, Report};
use fld_bench::runner;

fn main() {
    let cli = Cli::parse();
    let scale = cli.scale();
    use fld_bench::experiments as ex;
    let root = fld_bench::repo_root();
    let root = &root;
    let mut report = Report::new("all_experiments");
    type Section<'a> = Box<dyn FnOnce() -> String + Send + 'a>;
    let sections: Vec<Section> = vec![
        Box::new(ex::statics::table1),
        Box::new(ex::memory::table2),
        Box::new(ex::memory::table3),
        Box::new(ex::memory::fig4),
        Box::new(ex::memory::ablation),
        Box::new(move || ex::statics::table4(root)),
        Box::new(move || ex::statics::table5(root)),
        Box::new(ex::model::fig7a),
        Box::new(move || ex::echo::fig7b_flde(scale)),
        Box::new(move || ex::rdma::fig7b_fldr(scale)),
        Box::new(move || ex::echo::imc_mpps(scale)),
        Box::new(move || ex::echo::table6(scale)),
        Box::new(move || ex::rdma::fig7c(scale)),
        Box::new(move || ex::zuc::fig8a(scale)),
        Box::new(move || ex::zuc::fig8b(scale)),
        Box::new(move || ex::defrag::defrag_table(scale)),
        Box::new(move || ex::iot::iot_isolation(scale)),
        Box::new(move || ex::zuc_ext::zuc_ext(scale)),
        Box::new(ex::scaling::scaling),
        Box::new(ex::fabric::fabric),
    ];
    for section in runner::run_points(sections, |f| f()) {
        report.section(section);
        println!("{}", "=".repeat(72));
    }
    report.finish(&cli).expect("write report files");
}
